import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apvar import (
    DomainError,
    checks,
    denominator_counts,
    dissection,
    euler_phi,
    farey,
    verify_containment,
)
from apvar.errors import CertificateError


def farey_fractions(gamma):
    """F_gamma as Fraction objects, from the certified slices of the library."""
    return [Fraction(*f) for a, q in farey._slices(gamma) for f in zip(a.tolist(), q.tolist())]


def brute_force_sequence(gamma):
    """Oracle: enumerate and sort every reduced fraction of order gamma."""
    seen = {Fraction(0, 1), Fraction(1, 1)}
    for q in range(2, gamma + 1):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                seen.add(Fraction(a, q))
    return sorted(seen)


def brute_force_containment_ok(gamma):
    """Oracle: verify both inclusions with Fraction arithmetic only."""
    arcs = dissection(gamma)
    for arc in arcs:
        c, q = arc.center, arc.center.denominator
        inner = Fraction(1, 2 * q * gamma)
        outer = Fraction(1, q * gamma)
        if not (arc.left <= c - inner and c + inner <= arc.right):
            return False
        if not (c - outer <= arc.left and arc.right <= c + outer):
            return False
    return True


def verify_orders(gamma):
    """Oracle: verify_containment(g) for every g in 2..gamma, each F_g
    filtered from one F_gamma and certified again, O(gamma^3) work."""
    farey._check_order(gamma, 2, farey.MAX_VERIFY_ORDER)
    a, q = (np.concatenate(parts) for parts in zip(*farey._slices(gamma)))
    reports = []
    for g in range(gamma, 1, -1):
        keep = q <= g
        a, q = a[keep], q[keep]
        farey._certify(a, q, g)
        reports.append(farey._verify(g, farey._windows(g, [(a, q)])))
    return reports[::-1]


def oracle_row(gamma):
    """Oracle: the `verify --suite farey` containment row from verify_orders."""
    reports = verify_orders(gamma)
    arcs = sum(rep.arcs_checked for rep in reports)
    bad = [rep.gamma for rep in reports if not rep.ok]
    return {
        "check": f"farey containment+tiling gamma<={gamma} ({arcs} arcs)",
        "lhs": float(len(bad)),
        "rhs": 0.0,
        "rel_diff": float(len(bad)),
        "pass": not bad,
        "gamma": bad[0] if bad else None,
    }


def swap_pair(a, q):
    i = np.arange(a.size)
    i[[100, 101]] = 101, 100
    return a[i], q[i]


def bump_numerator(a, q):
    return a + (np.arange(a.size) == 100), q


def drop_fraction(a, q):
    return np.delete(a, 100), np.delete(q, 100)


def mutate_slices(monkeypatch, mutate):
    """Hand out F_gamma (one slice at the orders used) as mutate leaves it,
    before it is certified."""
    generate = farey._sorted_slices

    def mutated(gamma):
        for a, q, last in generate(gamma):
            yield (*mutate(a, q), last)

    monkeypatch.setattr(farey, "_sorted_slices", mutated)


class TestFareySequence:
    def test_order_one(self):
        assert farey_fractions(1) == [Fraction(0), Fraction(1)]

    def test_order_five(self):
        expected = [
            Fraction(0),
            Fraction(1, 5),
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(2, 5),
            Fraction(1, 2),
            Fraction(3, 5),
            Fraction(2, 3),
            Fraction(3, 4),
            Fraction(4, 5),
            Fraction(1),
        ]
        assert farey_fractions(5) == expected

    def test_zero_order_rejected(self):
        with pytest.raises(DomainError):
            denominator_counts(0)

    @pytest.mark.parametrize("gamma", (1, 2, 3, 7, 12, 25, 64, 101))
    def test_matches_brute_force(self, gamma):
        assert farey_fractions(gamma) == brute_force_sequence(gamma)

    def test_length_at_hundred(self):
        assert len(farey_fractions(100)) == 1 + sum(euler_phi(q) for q in range(1, 101)) == 3045

    def test_strictly_increasing(self):
        seq = farey_fractions(40)
        assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_order_beyond_float64_separation_rejected(self):
        # past MAX_ORDER the float64 sort could not separate neighbours; the
        # guard fires before anything is generated
        assert farey.MAX_ORDER == 2**22
        for make in (dissection, denominator_counts):
            with pytest.raises(DomainError):
                make(farey.MAX_ORDER + 1)


def farey_arrays(gamma):
    seq = brute_force_sequence(gamma)
    a = np.array([f.numerator for f in seq], dtype=np.int64)
    q = np.array([f.denominator for f in seq], dtype=np.int64)
    return a, q


class TestCertificate:
    @pytest.mark.parametrize("gamma", (1, 2, 5, 31))
    def test_accepts_the_farey_sequence(self, gamma):
        farey._certify(*farey_arrays(gamma), gamma)

    @pytest.mark.parametrize("i", (0, 4, 17, 38))
    def test_two_neighbours_swapped_raise(self, i):
        a, q = farey_arrays(11)
        a[[i, i + 1]], q[[i, i + 1]] = a[[i + 1, i]], q[[i + 1, i]]
        with pytest.raises(CertificateError):
            farey._certify(a, q, 11)

    @pytest.mark.parametrize("i", (0, 1, 20, 42))
    def test_dropped_fraction_raises(self, i):
        a, q = farey_arrays(11)
        with pytest.raises(CertificateError):
            farey._certify(np.delete(a, i), np.delete(q, i), 11)

    @pytest.mark.parametrize("i", (0, 9, 41))
    def test_extra_fraction_beyond_the_order_raises(self, i):
        # the mediant of two neighbours keeps b*q - a*r == 1 with both; only
        # its denominator, above gamma, gives it away
        a, q = farey_arrays(11)
        a = np.insert(a, i + 1, a[i] + a[i + 1])
        q = np.insert(q, i + 1, q[i] + q[i + 1])
        with pytest.raises(CertificateError, match="outside"):
            farey._certify(a, q, 11)

    def test_open_and_closed_ends_are_checked(self):
        a, q = farey_arrays(7)
        farey._certify(a[3:-3], q[3:-3], 7, opens=False, closes=False)
        with pytest.raises(CertificateError, match="starts"):
            farey._certify(a[3:], q[3:], 7)
        with pytest.raises(CertificateError, match="ends"):
            farey._certify(a[:-3], q[:-3], 7)


def gcd_oracle_slices(gamma, n):
    """(a, q, last) of the nonempty ones of the n slices of F_gamma that
    _sorted_slices yields, from np.gcd over every candidate 0 <= a <= q:
    a/q lies in slice floor(a n / q), 1/1 in the last."""
    q, a = np.nonzero(np.arange(gamma + 1) <= np.arange(1, gamma + 1)[:, None])
    q += 1
    keep = np.gcd(a, q) == 1
    a, q = a[keep], q[keep]
    j = np.minimum(a * n // q, n - 1)
    order = np.lexsort((a / q, j))
    a, q, j = a[order], q[order], j[order]
    cuts = np.flatnonzero(np.diff(j)) + 1
    return [
        (sa, sq, sj[0] == n - 1)
        for sa, sq, sj in zip(np.split(a, cuts), np.split(q, cuts), np.split(j, cuts))
    ]


class TestSlices:
    """Small slices force the carried-neighbour path at small orders."""

    @pytest.mark.parametrize(
        "gamma, slice_size",
        [(g, s) for g in (1, 2, 6, 30, 210) for s in (None, 7)] + [(2310, None), (2310, 1000)],
    )
    def test_slices_keep_exactly_the_gcd_coprime_pairs(self, monkeypatch, gamma, slice_size):
        # the largest omega(q) steps up at each gamma here; at slice size 7
        # (1000 at 2310, where 7 would make 254,101 slices) most q have zero
        # or one candidate per slice, so omega suffixes start at slice edges
        if slice_size:
            monkeypatch.setattr(farey, "SLICE", slice_size)
        n = 1 + gamma * gamma // (3 * farey.SLICE)
        got = list(farey._sorted_slices(gamma))
        want = gcd_oracle_slices(gamma, n)
        assert len(got) == len(want)
        for (a, q, last), (wa, wq, wlast) in zip(got, want):
            assert a.dtype == q.dtype == np.int64
            assert a.tolist() == wa.tolist() and q.tolist() == wq.tolist()
            assert last == wlast

    @pytest.mark.parametrize("slice_size", (1, 7, 100))
    def test_sliced_results_match_one_slice(self, monkeypatch, slice_size):
        gamma = 61
        whole = (
            farey_fractions(gamma),
            dissection(gamma),
            verify_containment(gamma),
            denominator_counts(gamma),
        )
        monkeypatch.setattr(farey, "SLICE", slice_size)
        assert len(list(farey._slices(gamma))) > 1
        sliced = (
            farey_fractions(gamma),
            dissection(gamma),
            verify_containment(gamma),
            denominator_counts(gamma),
        )
        assert sliced == whole
        assert sliced[0] == brute_force_sequence(gamma)

    @pytest.mark.parametrize("gamma", (1000, 3000))
    def test_slices_hold_at_most_slice_fractions(self, gamma):
        sizes = [a.size for a, _ in farey._slices(gamma)]
        assert max(sizes) <= 1 << 15
        assert sum(sizes) == sum(denominator_counts(gamma))
        assert len(sizes) == 1 + gamma * gamma // (3 * farey.SLICE)

    def test_one_fraction_slices_skip_empty_slices_and_short_windows(
        self, monkeypatch
    ):
        # the paths test_sliced_results_match_one_slice[1] goes through
        monkeypatch.setattr(farey, "SLICE", 1)
        slices = list(farey._slices(61))
        assert len(slices) < 1 + 61 * 61 // 3
        assert slices[0][0].tolist() == [0]  # [0, 1/1241) holds only 0/1
        assert len(list(farey._windows(61, slices))) == len(slices) - 1

    @pytest.mark.parametrize(
        "work",
        (
            lambda: verify_containment(3000),
            lambda: denominator_counts(3000),
            lambda: sum(1 for _ in farey.arc_slices(3000)),
        ),
        ids=("verify_containment", "denominator_counts", "arc_slices"),
    )
    def test_peak_memory_stays_below_8_mib_at_order_3000(self, work):
        # F_3000 has 2.7 million fractions; one slice at a time used to peak
        # at 97-121 MiB here
        tracemalloc.start()
        try:
            work()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestDissection:
    def test_central_arc_of_order_five(self):
        arcs = {a.center: a for a in dissection(5)}
        arc = arcs[Fraction(2, 5)]
        assert (arc.left, arc.right) == (Fraction(3, 8), Fraction(3, 7))

    def test_order_two(self):
        arcs = dissection(2)
        assert [(a.center, a.left, a.right) for a in arcs] == [
            (Fraction(0), Fraction(-1, 3), Fraction(1, 3)),
            (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)),
        ]

    def test_order_below_two_rejected(self):
        with pytest.raises(DomainError):
            dissection(1)

    @pytest.mark.parametrize("gamma", (2, 3, 5, 17, 100, 300))
    def test_tiling_is_exact(self, gamma):
        arcs = dissection(gamma)
        assert len(arcs) == sum(euler_phi(q) for q in range(1, gamma + 1))
        for left, right in zip(arcs, arcs[1:]):
            assert left.right == right.left  # shared endpoints, no gaps
            assert left.left < left.center < left.right
        total = sum((a.right - a.left for a in arcs), Fraction(0))
        assert total == 1

    def test_endpoints_already_reduced_as_mediants(self):
        # mediants of Farey neighbours are in lowest terms, so reduced
        # Fraction objects carry exactly the mediant numerator/denominator
        seq = farey_fractions(30)
        for prev, cur in zip(seq, seq[1:]):
            m_num = prev.numerator + cur.numerator
            m_den = prev.denominator + cur.denominator
            assert math.gcd(m_num, m_den) == 1


class TestContainment:
    def test_example_inclusions_order_five(self):
        # around 2/5: inner radius 1/50, outer radius 1/25
        arcs = {a.center: a for a in dissection(5)}
        arc = arcs[Fraction(2, 5)]
        assert arc.left <= Fraction(2, 5) - Fraction(1, 50)
        assert Fraction(2, 5) + Fraction(1, 50) <= arc.right
        assert Fraction(2, 5) - Fraction(1, 25) <= arc.left
        assert arc.right <= Fraction(2, 5) + Fraction(1, 25)

    def test_example_inclusions_order_two(self):
        arcs = {a.center: a for a in dissection(2)}
        arc = arcs[Fraction(1, 2)]
        assert (arc.left, arc.right) == (Fraction(1, 3), Fraction(2, 3))
        assert Fraction(3, 8) >= arc.left and Fraction(5, 8) <= arc.right
        assert Fraction(1, 4) <= arc.left and arc.right <= Fraction(3, 4)

    def test_exhaustive_through_300(self):
        for gamma in range(2, 301):
            report = verify_containment(gamma)
            assert report.ok, (gamma, report.violations, report.tiling_violations)

    @pytest.mark.parametrize("gamma", (2, 3, 11, 40))
    def test_checker_agrees_with_fraction_oracle(self, gamma):
        assert verify_containment(gamma).ok == brute_force_containment_ok(gamma)

    def test_arc_counts_match_dissection(self):
        for gamma in (2, 9, 50):
            assert verify_containment(gamma).arcs_checked == len(dissection(gamma))

    def test_order_beyond_exact_range_rejected(self):
        with pytest.raises(DomainError):
            verify_containment(10**4 + 1)
        with pytest.raises(DomainError):
            farey.failing_orders(10**4 + 1)

    @pytest.mark.parametrize("gamma", (2, 3, 17, 60))
    def test_one_sequence_serves_every_order(self, gamma):
        each = [verify_containment(g) for g in range(2, gamma + 1)]
        assert verify_orders(gamma) == each
        row = checks.farey_containment(gamma)
        arcs = sum(rep.arcs_checked for rep in each)
        assert row["check"] == f"farey containment+tiling gamma<={gamma} ({arcs} arcs)"
        assert row["pass"] == all(rep.ok for rep in each)

    @pytest.mark.parametrize("gamma", (2, 3, 17, 60, 300))
    def test_row_matches_the_per_order_oracle(self, gamma):
        assert checks.farey_containment(gamma) == oracle_row(gamma)

    @pytest.mark.parametrize(
        "mutate", (swap_pair, bump_numerator, drop_fraction), ids=lambda f: f.__name__
    )
    def test_mutated_sequences_fail_both(self, monkeypatch, mutate):
        mutate_slices(monkeypatch, mutate)
        for check in (verify_orders, checks.farey_containment):
            with pytest.raises(CertificateError):
                check(40)

    def test_parents_are_checked_without_the_certificate(self, monkeypatch):
        # a wrong numerator that the certificate is not there to catch still
        # breaks the parent identities of its neighbours
        monkeypatch.setattr(farey, "_certify", lambda *args, **kwargs: None)
        mutate_slices(monkeypatch, bump_numerator)
        with pytest.raises(CertificateError, match="parents"):
            farey.failing_orders(20)

    def test_suite_row_at_three_hundred(self):
        row = checks.farey_containment(300)
        assert row["check"] == "farey containment+tiling gamma<=300 (2763278 arcs)"
        assert row["pass"] and row["gamma"] is None

    def test_suite_names_the_first_failing_order(self, monkeypatch):
        # an outer radius of 15/(16 q g) first fails at order 16, where the
        # arc of 0/1 ends at 1/17, its mediant with 1/16; both the pass and
        # the per-order oracle name it, and every order after it
        monkeypatch.setattr(farey, "_overshoots", lambda gap, den, g: 16 * gap * g > 15 * den)
        row = checks.farey_containment(20)
        assert not row["pass"] and row["lhs"] == 5.0 and row["gamma"] == 16
        assert row == oracle_row(20)

    @pytest.mark.parametrize(
        "name, fault",
        (
            # at mediant denominator 30 the outer radius shrinks to 2/(3 q g):
            # it first fails at order 21, inside the orders 17..29 and 19..29
            # of the pairs with denominators 13, 17 and 11, 19
            ("_overshoots", lambda gap, den, g: (gap * g > den) | ((den == 30) & (3 * gap * g > 2 * den))),
            # at 29 the inner radius grows to 2/(3 q g), failing up to order 19
            ("_clears", lambda gap, den, g: (2 * gap * g >= den) & ((den != 29) | (3 * gap * g >= 2 * den))),
            ("_clears", lambda gap, den, g: 3 * gap * g >= 2 * den),
        ),
        ids=("outer at 30", "inner at 29", "inner everywhere"),
    )
    @pytest.mark.parametrize("gamma", (25, 40))
    def test_injected_faults_fail_the_oracles_orders(self, monkeypatch, name, fault, gamma):
        monkeypatch.setattr(farey, name, fault)
        row = checks.farey_containment(gamma)
        assert not row["pass"]
        assert row == oracle_row(gamma)

    @given(st.integers(min_value=2, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_random_orders_pass(self, gamma):
        assert verify_containment(gamma).ok


class TestLengthHistogram:
    def test_counts_match_totients_to_1000(self):
        counts = denominator_counts(1000)
        assert counts[1] == 2
        for q in range(2, 1001):
            assert counts[q] == euler_phi(q)

    def test_implies_length_identity_for_every_order(self):
        gamma = 200
        counts = denominator_counts(gamma)
        phi_sum = 1
        length = 2
        for g in range(2, gamma + 1):
            phi_sum += euler_phi(g)
            length += counts[g]
            assert length == 1 + phi_sum
        for g in (1, 2, 17, 120, 200):
            assert len(farey_fractions(g)) == 1 + sum(euler_phi(q) for q in range(1, g + 1))
