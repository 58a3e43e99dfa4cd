import dataclasses
import math

import numpy as np
import pytest

from apvar import (
    DkTable,
    DomainError,
    ResourceError,
    ap_main_term,
    ap_sums,
    delta_value,
    density_square_sum_check,
    deviation_decay_slope,
    dirichlet_sums,
    divisors,
    euler_phi,
    eval_logpoly,
    growth_study,
    m_poly,
    parseval_check,
    sieve_dk,
    variance_expansion_check,
    variance_total,
)
from apvar import checks, residues, sieve, stats
from apvar.errors import CertificateError
from apvar.sieve import autocorrelation, congruence_sums, exact_square_sum, fft_error_bound
from apvar.stats import _block_terms, _exp_sums, _moduli_blocks, regression_slope

GAMMA0 = 0.5772156649015328606065121


def class_errors(table, q, x):
    """E(q, a) = A(x; q, a) - x f(q, a)/q for a = 1..q, from the class sums
    and one ap_main_term per class: the oracle of the engine's errors."""
    sums = ap_sums(table, q, x).sums[1:].astype(np.float64)
    f = [eval_logpoly(ap_main_term(q, a, table.k), float(x)) for a in range(1, q + 1)]
    return sums - x * np.array(f) / q


class TestErrorVector:
    def test_trivial_modulus_at_hundred(self):
        t = sieve_dk(100, 2)
        assert ap_sums(t, 1, 100).sums[1] == 482
        (e,) = class_errors(t, 1, 100)
        f = ap_main_term(1, 1, 2)
        expected = 482 - 100 * eval_logpoly(f, 100.0)
        assert e == pytest.approx(expected, abs=1e-9)
        assert e == pytest.approx(6.04, abs=0.01)

    def test_exact_count_at_one(self):
        t = sieve_dk(1, 1)
        (e,) = class_errors(t, 1, 1)
        assert e == 0.0

    def test_classes_sum_to_trivial_class(self, table_k2_1e4):
        x = 10**4
        (e1,) = class_errors(table_k2_1e4, 1, x)
        for q in (3, 7, 12):
            e = class_errors(table_k2_1e4, q, x)
            assert math.fsum(e) == pytest.approx(float(e1), rel=1e-6)

class TestDeltaValue:
    def test_zero_fraction_matches_trivial_error(self, table_k2_1e4):
        x = 10**4
        cls = ap_sums(table_k2_1e4, 1, x)
        d = delta_value(cls, 0)
        (e,) = class_errors(table_k2_1e4, 1, x)
        assert d.value.imag == 0.0
        assert d.value.real == pytest.approx(float(e), abs=1e-9)

    def test_half_fraction_at_ten(self):
        t = sieve_dk(10, 2)
        cls = ap_sums(t, 2, 10)
        d = delta_value(cls, 1)
        m2 = math.log(10) + 2 * GAMMA0 - 1 - 2 * math.log(2)
        assert eval_logpoly(m_poly(2, 2), 10.0) == pytest.approx(m2, abs=1e-12)
        assert d.value == pytest.approx(complex(7 - 10 * m2 / 2, 0), abs=1e-9)
        assert abs(d.value - 1.65) < 0.01

    def test_conjugate_symmetry(self, table_k3_1e4):
        for q in (5, 9, 16):
            cls = ap_sums(table_k3_1e4, q, 10**4)
            for a in range(1, q):
                d1 = delta_value(cls, a).value
                d2 = delta_value(cls, q - a).value
                assert abs(d1 - d2.conjugate()) < 1e-9 * max(1.0, abs(d1))


class TestVariance:
    def test_single_modulus_is_squared_error(self, table_k2_1e4):
        (e,) = class_errors(table_k2_1e4, 1, 10**3)
        assert variance_total(table_k2_1e4, 10**3, 1).per_q[0] == pytest.approx(
            float(e) ** 2, rel=1e-12
        )

    def test_total_is_monotone_in_Q(self, table_k2_1e4):
        x = 2000
        totals = [variance_total(table_k2_1e4, x, Q).total for Q in (1, 5, 20, 40)]
        assert all(a <= b + 1e-9 for a, b in zip(totals, totals[1:]))

    def test_per_q_values_nonnegative(self, table_k2_1e4):
        rep = variance_total(table_k2_1e4, 5000, 30)
        assert all(v >= 0.0 for v in rep.per_q)
        assert rep.total == pytest.approx(math.fsum(rep.per_q), rel=1e-15)

    def test_report_totals_match_per_q_sum(self, table_k3_1e4):
        rep = variance_total(table_k3_1e4, 10**4, 25)
        assert rep.total == math.fsum(rep.per_q)
        assert len(rep.per_q) == 25

    def test_threaded_reduction_is_identical(self, table_k3_1e4):
        a = variance_total(table_k3_1e4, 10**4, 40, threads=1)
        b = variance_total(table_k3_1e4, 10**4, 40, threads=8)
        assert np.array_equal(a.per_q, b.per_q)
        assert a.total == b.total
        assert a.congruence_term == b.congruence_term
        assert a.cross_term == b.cross_term and a.main_term == b.main_term

    def test_per_q_is_a_read_only_float64_array(self, table_k2_1e4):
        rep = variance_total(table_k2_1e4, 5000, 30)
        assert type(rep.per_q) is np.ndarray and rep.per_q.dtype == np.float64
        assert rep.per_q.shape == (30,)
        with pytest.raises(ValueError, match="read-only"):
            rep.per_q[0] = 0.0

    def test_congruence_term_in_int64_is_an_exact_int(self, table_k2_1e4):
        # the int64 path: (sum d_2)^2 < 2^63, and the term is a Python int
        x, Q = 5000, 40
        congruence = congruence_sums(table_k2_1e4, x, Q)
        assert congruence.dtype == np.int64
        term = variance_total(table_k2_1e4, x, Q).congruence_term
        assert type(term) is int
        assert term == sum(int(c) for c in congruence[1:])

    def test_Q_beyond_x_rejected(self, table_k2_1e4):
        with pytest.raises(DomainError):
            variance_total(table_k2_1e4, 100, 101)

    def test_congruence_term_beyond_int64_is_exact(self):
        # every q has q * max(A)^2 >= 2^63, so each class sum square is
        # taken in Python ints; an int64 dot would wrap
        table = DkTable(x=4, k=2, values=np.array([0] + [2**31] * 4, dtype=np.int64))
        exact = sum(
            int(a) ** 2 for q in range(1, 5) for a in ap_sums(table, q, 4).sums[1:]
        )
        term = variance_total(table, 4, 4).congruence_term
        assert type(term) is int and term == exact == 34 * 2**62


def reference_variance(table, x, Q, k):
    """The per-q loop the gcd-class engine replaced, kept as its oracle: one
    ap_main_term per divisor, an np.gcd class index and a Python-int
    congruence sum.  Returns (per_q, congruence, cross, main)."""
    rows = []
    for q in range(1, Q + 1):
        counts = ap_sums(table, q, x).sums[1:]
        divs = divisors(q)
        by_gcd = np.array([eval_logpoly(ap_main_term(q, d, k), float(x)) for d in divs])
        f_vals = by_gcd[np.searchsorted(divs, np.gcd(np.arange(1, q + 1), q))]
        cf = counts.astype(np.float64)
        e = cf - (x / q) * f_vals
        rows.append((
            float(np.sum(e * e)),
            sum(int(c) * int(c) for c in counts.tolist()),
            -2.0 * x / q * float(np.sum(cf * f_vals)),
            (x / q) ** 2 * float(np.sum(f_vals * f_vals)),
        ))
    per_q, congruence, cross, main = zip(*rows)
    return per_q, sum(congruence), math.fsum(cross), math.fsum(main)


def rel_diff(a, b):
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom else 0.0


class TestVarianceOracle:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_engine_matches_per_q_reference(self, k):
        table = sieve_dk(5000, k)
        for x in (5000, 3001):
            per_q, congruence, cross, main = reference_variance(table, x, 300, k)
            rep = variance_total(table, x, 300)
            assert rep.congruence_term == congruence
            worst = max(rel_diff(a, b) for a, b in zip(per_q, rep.per_q))
            assert worst <= 1e-10
            assert rel_diff(rep.total, math.fsum(per_q)) <= 1e-10
            assert rel_diff(rep.cross_term, cross) <= 1e-10
            assert rel_diff(rep.main_term, main) <= 1e-10

    def test_batched_densities_match_main_term_polynomials(self):
        # f(q, delta)(x) = q/phi(q/delta) * (C . w(x)) for every q <= 300,
        # delta | q, against Horner on the ap_main_term polynomial
        worst, where, cases = 0.0, None, 0
        for x in (5000.0, 1e12):
            for k in range(1, 9):
                ((_, lattice, polys),) = _moduli_blocks([300], k)
                start, delta, cw = lattice.start, lattice.delta, eval_logpoly(polys, x)
                for i, q in enumerate(range(1, 301)):
                    # the rows of q, in mixed-radix order, sorted by delta
                    rows = np.arange(start[i], start[i + 1])
                    rows = rows[np.argsort(delta[rows])]
                    assert delta[rows].tolist() == divisors(q)
                    for r in rows.tolist():
                        d = int(delta[r])
                        got = q / euler_phi(q // d) * cw[r]
                        err = rel_diff(got, eval_logpoly(ap_main_term(q, d, k), x))
                        cases += 1
                        if err > worst:
                            worst, where = err, (x, k, q, d)
        assert cases == 2 * 8 * sum(len(divisors(q)) for q in range(1, 301))
        assert worst <= 1e-12, f"worst relative error {worst:.2e} at (x, k, q, delta) = {where}"


class TestAllModuliEngine:
    def test_dual_identity_is_exact(self, table_k3_1e4):
        # sum_{q<=Q} sum_a A^2 = Q C(0) + 2 sum_{h>=1} C(h) #{q <= Q : q | h},
        # with C(h) from a direct int64 correlation
        x, Q = 3000, 200
        v = table_k3_1e4.values[1 : x + 1]
        corr = np.correlate(v, v, "full")[x - 1 :]
        assert np.array_equal(autocorrelation(v), corr)
        divides = np.zeros(x, dtype=np.int64)
        for q in range(1, Q + 1):
            divides[q::q] += 1
        dual = Q * int(corr[0]) + 2 * sum(
            int(c) * int(n) for c, n in zip(corr[1:], divides[1:])
        )
        assert variance_total(table_k3_1e4, x, Q).congruence_term == dual

    @pytest.mark.parametrize("top", [2**20, 2**40])
    def test_limb_path_matches_brute_force(self, top):
        # one FFT could not round these products exactly, so the values are
        # split into limbs; 2^20 keeps every sum in int64, 2^40 needs Python ints
        rng = np.random.default_rng(7)
        x, Q = 600, 60
        values = np.concatenate([[0], rng.integers(0, top, x)])
        table = DkTable(x=x, k=2, values=values)
        size = 1 << (2 * x - 1).bit_length()
        assert fft_error_bound(exact_square_sum(values[1:]), size) >= 0.5
        brute = [
            sum(int(a) ** 2 for a in ap_sums(table, q, x).sums[1:]) for q in range(1, Q + 1)
        ]
        assert congruence_sums(table, x, Q)[1:].tolist() == brute
        assert variance_total(table, x, Q).congruence_term == sum(brute)

    def test_rounding_beyond_the_bound_is_refused(self, table_k2_1e4, monkeypatch):
        # with a zero bound, FFT output that is not exactly integral fails
        monkeypatch.setattr(sieve, "fft_error_bound", lambda norms, size: 0.0)
        with pytest.raises(CertificateError):
            congruence_sums(table_k2_1e4, 5000, 10)

    def test_class_sums_certify_moduli_beyond_the_trivial_one(self, table_k2_1e4, monkeypatch):
        # C(2) + 1 and C(3) - 1 leave the sum mod 1 intact but move the sums
        # mod 2 and mod 3, which their class sums catch
        exact = autocorrelation

        def skewed(values):
            corr = exact(values).copy()
            corr[2] += 1
            corr[3] -= 1
            return corr

        monkeypatch.setattr(sieve, "autocorrelation", skewed)
        with pytest.raises(CertificateError, match="mod 2"):
            congruence_sums(table_k2_1e4, 5000, 10)

    @pytest.mark.parametrize("k", (1, 3))
    def test_within_class_spread_is_nonnegative_and_exact(self, table_k3_1e4, k):
        # within = sum_a (A - G/phi)^2 over each gcd class, against class sums
        table = table_k3_1e4 if k == 3 else sieve_dk(10**4, 1)
        x, Q = 7919, 120
        ((_, lattice, polys),) = _moduli_blocks([Q], k)
        q = np.arange(1, Q + 1)
        strided = sieve.multiple_sums(table.values[: x + 1], Q)
        cw = eval_logpoly(polys, x)
        within, between, _, _ = _block_terms(
            congruence_sums(table, x, Q)[q], strided, x, q, lattice, cw
        )
        assert (within >= 0.0).all()
        for q in range(1, Q + 1):
            counts = ap_sums(table, q, x).sums[1:].astype(np.float64)
            gcds = np.gcd(np.arange(1, q + 1), q)
            mass = np.bincount(gcds, weights=counts)
            size = np.bincount(gcds)
            spread = counts - mass[gcds] / size[gcds]
            want = math.fsum((spread * spread).tolist())
            assert within[q - 1] == pytest.approx(want, rel=1e-9, abs=1e-9)
        rep = variance_total(table, x, Q)
        assert np.array_equal(rep.per_q, within + between)


@pytest.fixture(scope="module", params=(2, 3))
def sieved_and_loaded(request, tmp_path_factory):
    """d_k up to 2^16 as sieved (int64) and as read back from DKTB (int32)."""
    table = sieve_dk(65536, request.param)
    path = tmp_path_factory.mktemp("dktb") / f"d{request.param}.dktb"
    sieve.write_table(table, path)
    loaded = sieve.read_table(path)
    assert table.values.dtype == np.int64 and loaded.values.dtype == np.int32
    return table, loaded


class TestLoadedTables:
    """Every statistic of a loaded int32 table is bit-identical to that of
    the int64 table it was written from."""

    @pytest.mark.parametrize("x, Q", ((65536, 4096), (65536, 1), (50000, 300)))
    def test_variance_report(self, sieved_and_loaded, x, Q):
        table, loaded = sieved_and_loaded
        want = variance_total(table, x, Q)
        got = variance_total(loaded, x, Q)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name == "per_q":
                assert np.array_equal(a, b)
            else:
                assert a == b and type(a) is type(b), field.name

    def test_congruence_sums(self, sieved_and_loaded):
        table, loaded = sieved_and_loaded
        want = congruence_sums(table, 65536, 4096)
        got = congruence_sums(loaded, 65536, 4096)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_square_and_total_sums(self, sieved_and_loaded):
        table, loaded = sieved_and_loaded
        assert sieve.square_sum(loaded) == sieve.square_sum(table)
        assert sieve.total_sum(loaded) == sieve.total_sum(table)

    def test_dirichlet_check(self, sieved_and_loaded):
        table, loaded = sieved_and_loaded
        assert checks.dirichlet(loaded, table.x) == checks.dirichlet(table, table.x)

    def test_exp_sums(self, sieved_and_loaded):
        table, loaded = sieved_and_loaded
        for q, a in ((1, 0), (2, 1), (7, 3), (4096, 1001), (65521, 12345)):
            want = sieve.exp_sum(ap_sums(table, q, 65536), a)
            assert sieve.exp_sum(ap_sums(loaded, q, 65536), a) == want


class TestParseval:
    def test_exact_for_single_class(self, table_k2_1e4):
        lhs, rhs = parseval_check(table_k2_1e4, 1, 10**4)
        assert lhs == rhs

    def test_small_case(self):
        t = sieve_dk(20, 2)
        lhs, rhs = parseval_check(t, 3, 20)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_at_scale(self, table_k3_1e4):
        lhs, rhs = parseval_check(table_k3_1e4, 50, 10**4)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_sweep_of_moduli(self, table_k2_1e4, table_k3_1e4):
        for table in (table_k2_1e4, table_k3_1e4):
            for q in range(1, 51):
                lhs, rhs = parseval_check(table, q, 10**3)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_one_dft_per_modulus(self, monkeypatch, table_k3_1e4):
        def must_not_run(*args, **kwargs):
            raise AssertionError("parseval_check summed one a at a time")

        monkeypatch.setattr(stats, "exp_sum", must_not_run)
        monkeypatch.setattr(stats, "delta_value", must_not_run)
        lhs, rhs = parseval_check(table_k3_1e4, 50, 10**4)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("q", (1, 2, 12, 49, 97, 360))
    def test_dft_matches_exp_sum_for_every_a(self, table_k2_1e4, q):
        cls = ap_sums(table_k2_1e4, q, 10**4)
        want = np.array([sieve.exp_sum(cls, a).value for a in range(1, q + 1)])
        err = np.abs(_exp_sums(cls) - want).max()
        assert err <= 1e-13 * int(cls.sums.sum())

    def test_dft_matches_mpmath_at_a_large_prime(self):
        """Random class sums below 2^20 mod the prime 99991: S(a/q) from the
        DFT within 1e-13 of their mass from a 25-digit sum."""
        import mpmath as mp

        q = 99991
        sums = np.random.default_rng(99991).integers(0, 2**20, q + 1)
        sums[0] = 0
        got = _exp_sums(sieve.ResidueClassSums(q=q, X=q, k=2, sums=sums))
        with mp.workdps(25):
            step = 2 * mp.pi / q
            for a in (12345, q - 1):
                want = mp.fsum(
                    int(sums[n]) * mp.expj(step * (a * n % q)) for n in range(1, q + 1)
                )
                err = float(abs(mp.mpc(got[a - 1]) - want))
                assert err <= 1e-13 * int(sums.sum())


class TestVarianceExpansion:
    def test_single_modulus_reduces_to_squared_error(self, table_k2_1e4):
        direct, expanded = variance_expansion_check(table_k2_1e4, 10**3, 1)
        (e,) = class_errors(table_k2_1e4, 1, 10**3)
        assert direct == pytest.approx(float(e) ** 2, rel=1e-12)
        assert expanded == pytest.approx(direct, rel=1e-9)

    def test_desk_scale_k2(self, table_k2_1e4):
        direct, expanded = variance_expansion_check(table_k2_1e4, 10**3, 50)
        assert direct == pytest.approx(expanded, rel=1e-9)

    def test_desk_scale_k3(self, table_k3_1e4):
        direct, expanded = variance_expansion_check(table_k3_1e4, 10**4, 100)
        assert direct == pytest.approx(expanded, rel=1e-9)

    def test_cancellation_bounds_the_observed_error(self, table_k3_1e4):
        direct, expanded = variance_expansion_check(table_k3_1e4, 10**4, 100)
        report = variance_total(table_k3_1e4, 10**4, 100)
        assert abs(direct - expanded) / direct < report.cancellation < 1e-9

    def test_cancellation_reaching_the_gate_is_certificate_error(self):
        # k = 1: sum_a A^2 ~ x^2/q against V_q ~ q, so the terms cancel
        # by about 2.5e8 at x = 1e5
        table = sieve_dk(10**5, 1)
        assert variance_total(table, 10**5, 100).cancellation > 1e-9
        with pytest.raises(CertificateError, match="cancel"):
            variance_expansion_check(table, 10**5, 100)

    def test_budget_guard(self, table_k2_1e4):
        with pytest.raises(ResourceError):
            variance_expansion_check(table_k2_1e4, 10**4, 100, budget=10)


class TestDensitySquareSum:
    def test_matches_quadratic_mean_polynomial(self):
        for q in (1, 2, 36, 60):
            lhs, rhs = density_square_sum_check(q, 10**3, 2)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestDirichletPartialSums:
    def test_example_case_converges(self):
        t = sieve_dk(10**5, 2)
        delta, lhs, _, rhs = dirichlet_sums(t, 30, 10**5)[4]
        assert delta == 6
        assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_unconstrained_case(self):
        t = sieve_dk(10**5, 2)
        ((_, lhs, _, rhs),) = dirichlet_sums(t, 1, 10**5)
        assert rhs == pytest.approx((math.pi**2 / 6) ** 2, rel=1e-15)
        assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_partial_sums_approach_target_monotonically(self):
        # the slowest desk-scale case: prime modulus with full gcd; the
        # deficit shrinks as the cutoff grows
        rels = []
        for n in (10**4, 10**5):
            t = sieve_dk(n, 3)
            delta, lhs, _, rhs = dirichlet_sums(t, 29, n)[-1]
            assert delta == 29
            assert lhs < rhs  # positive terms only: partial sums from below
            rels.append((rhs - lhs) / rhs)
        assert rels[1] < rels[0]

    def test_cutoff_out_of_range_rejected(self, table_k2_1e4):
        for N in (0, 10**4 + 1):
            with pytest.raises(DomainError):
                dirichlet_sums(table_k2_1e4, 10, N)
            with pytest.raises(DomainError):
                checks.dirichlet(table_k2_1e4, N)

    def test_reads_the_density_table_not_main_terms_or_divisors(self, monkeypatch):
        # delta, phi(q/delta) and the class-mass polynomial all come from
        # _residue_polys, even when its cache is cold
        from apvar import arith, residues

        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name, fn in (("ap_main_term", residues.ap_main_term), ("divisors", arith.divisors)):
            for module in (arith, residues, stats):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counting(name, fn))
        monkeypatch.setattr(residues, "_TABLES", {})
        table = sieve_dk(10**3, 2)
        for q in range(1, 31):
            dirichlet_sums(table, q, 10**3)
        assert calls == []

    def test_one_class_sum_pass_per_modulus(self, monkeypatch):
        # one ap_sums pass serves every delta | q: 30 passes for q <= 30,
        # not one per (q, delta) pair (111)
        calls = []
        counted = stats.ap_sums

        def counting(*args):
            calls.append(args[1])
            return counted(*args)

        monkeypatch.setattr(stats, "ap_sums", counting)
        checks.dirichlet(sieve_dk(10**3, 2), 10**3)
        assert calls == list(range(1, 31))


class TestDeviationDecay:
    def test_slopes_below_analytic_bound(self, table_k2_1e6, table_k3_1e6):
        cutoffs = (10**4, 10**5, 10**6)
        for table, k in ((table_k2_1e6, 2), (table_k3_1e6, 3)):
            bound = 1 - 1 / (2 * (k - 1)) + 0.15
            for q in range(1, 7):
                for a in range(1, q + 1):
                    if math.gcd(a, q) != 1:
                        continue
                    mags, slope = deviation_decay_slope(table, q, a, cutoffs)
                    assert slope <= bound
                    ratios = [m / X for m, X in zip(mags, cutoffs)]
                    assert ratios[0] > ratios[1] > ratios[2]


class TestRegressionSlope:
    def test_exact_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0 * t + 0.5 for t in xs]
        assert regression_slope(xs, ys) == pytest.approx(2.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            regression_slope([1.0], [2.0])


class TestGrowthStudy:
    def test_points_at_one_modulus_reduce_to_trivial_variance(self, table_k2_1e4):
        study = growth_study(table_k2_1e4, [(10**3, 1), (10**4, 1)])
        for x, Q, v, ratio in study.rows:
            assert Q == 1
            (e,) = class_errors(table_k2_1e4, 1, x)
            assert v == pytest.approx(float(e) ** 2, rel=1e-12)

    def test_square_root_points_rows_and_ratio(self, table_k2_1e4):
        points = [(x, round(x**0.5)) for x in (512, 2048, 8192)]
        study = growth_study(table_k2_1e4, points)
        assert [r[:2] for r in study.rows] == points == [(512, 23), (2048, 45), (8192, 91)]
        for x, Q, v, ratio in study.rows:
            assert ratio == pytest.approx(v / (x * Q), rel=1e-15)
            # the shared blocks for the largest Q serve each smaller Q exactly
            assert v == variance_total(table_k2_1e4, x, Q).total

    def test_one_point_row_and_no_slope(self, table_k2_1e4):
        study = growth_study(table_k2_1e4, [(1000, 100)])
        assert study.rows[0][:2] == (1000, 100)
        assert study.rows[0][2] == variance_total(table_k2_1e4, 1000, 100).total
        assert math.isnan(study.slope)  # a slope needs two points

    def test_point_beyond_the_table_fails_before_any_fft(self, table_k2_1e4, monkeypatch):
        monkeypatch.setattr(stats, "congruence_sums", None)
        for points in ([(1000, 100), (20000, 100)], [(1000, 1001)], [(1000, 0)]):
            with pytest.raises(DomainError):
                growth_study(table_k2_1e4, points)

    @staticmethod
    def record_blocks(monkeypatch):
        """Record ("series",) for every build of local Euler series,
        ("build", first, last) for every lattice block and
        ("use", first, last, x) for every point that takes its terms."""
        events = []
        series, build, use = residues._local_series, stats.divisor_lattice, stats._block_terms

        def recording_series(columns, k):
            events.append(("series",))
            return series(columns, k)

        def recording_build(moduli, columns=None):
            events.append(("build", moduli[0], moduli[-1]))
            return build(moduli, columns)

        def recording_use(congruence, strided, x, q, lattice, cw):
            events.append(("use", int(q[0]), int(q[-1]), x))
            return use(congruence, strided, x, q, lattice, cw)

        for module in (residues, stats):
            monkeypatch.setattr(module, "_local_series", recording_series)
        monkeypatch.setattr(stats, "divisor_lattice", recording_build)
        monkeypatch.setattr(stats, "_block_terms", recording_use)
        return events

    def test_lattice_blocks_stream(self, table_k2_1e4, monkeypatch):
        # one build of the local series for the whole run, then blocks of at
        # most 1024 moduli, cut after each Q: each is built once, and every
        # point with Q past it takes the whole block from it before the next
        # block is built
        events = self.record_blocks(monkeypatch)
        grid = [(3000, 1500), (10000, 5000)]
        study = growth_study(table_k2_1e4, grid)
        assert [r[:2] for r in study.rows] == grid
        blocks = [(1, 1024), (1025, 1500), (1501, 2524), (2525, 3548), (3549, 4572), (4573, 5000)]
        want = [("series",)]
        for lo, hi in blocks:
            want.append(("build", lo, hi))
            want += [("use", lo, hi, x) for x, Q in grid if hi <= Q]
        assert events == want

    def test_two_Q_values_inside_one_block(self, table_k2_1e4, monkeypatch):
        # 1100 and 1900 both fall in the second block of 1024 moduli, which
        # the cuts split in two
        events = self.record_blocks(monkeypatch)
        grid = [(2000, 1100), (4000, 1900), (10000, 5000)]
        study = growth_study(table_k2_1e4, grid)
        builds = [e[1:] for e in events if e[0] == "build"]
        assert builds[:4] == [(1, 1024), (1025, 1100), (1101, 1900), (1901, 2924)]
        monkeypatch.undo()
        for (x, Q), row in zip(grid, study.rows):
            assert row[:2] == (x, Q)
            assert row[2] == variance_total(table_k2_1e4, x, Q).total

    def test_doubling_Q_roughly_doubles_variance(self, table_k2_1e4):
        x = 10**4
        v1 = variance_total(table_k2_1e4, x, 64).total
        v2 = variance_total(table_k2_1e4, x, 128).total
        assert 1.0 <= v2 / v1 <= 4.0  # at most ~doubles plus polylog drift
