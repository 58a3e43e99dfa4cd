"""Self-tests for the benchmark's trace accounting and tail-percentile rule.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import math
from functools import lru_cache

import pytest
import run
from spans import Tracer, covered, hit_ratio, layer_totals

import apvar
from apvar import residues


def totals(spans):
    return {name: {k: round(v, 9) for k, v in t.items()} for name, t in layer_totals(spans).items()}


def test_self_time_subtracts_union_of_overlapping_children():
    # A calls B and C, which overlap as on two pool threads; C calls D.
    spans = [
        (0, "A", 0.0, 10.0, None),
        (1, "B", 1.0, 4.0, 0),
        (2, "C", 3.0, 6.0, 0),
        (3, "D", 5.0, 5.5, 2),
    ]
    t = totals(spans)
    assert t["A"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert t["B"] == {"calls": 1, "busy_s": 3.0, "self_s": 3.0}
    assert t["C"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.5}
    assert t["D"] == {"calls": 1, "busy_s": 0.5, "self_s": 0.5}


def test_recursive_spans_count_once_in_busy_time():
    spans = [
        (0, "m", 0.0, 10.0, None),
        (1, "m", 2.0, 6.0, 0),
        (2, "m", 3.0, 4.0, 1),
        (3, "x", 7.0, 8.0, 0),
        (4, "m", 11.0, 12.0, None),
    ]
    t = totals(spans)
    assert t["m"] == {"calls": 4, "busy_s": 11.0, "self_s": 10.0}
    assert t["x"]["self_s"] == 1.0


def test_covered_clips_to_the_interval():
    assert covered((2.0, 8.0), [(0.0, 3.0), (2.5, 4.0), (7.0, 9.0)]) == pytest.approx(3.0)
    assert covered((2.0, 8.0), []) == 0.0
    assert covered((2.0, 8.0), [(3.0, 4.0), (3.5, 3.6)]) == pytest.approx(1.0)


def test_hit_ratio_from_cache_info():
    @lru_cache(maxsize=None)
    def square(n):
        return n * n

    assert hit_ratio(square.cache_info()) == 0.0
    for n in (1, 1, 2, 1):
        square(n)
    assert hit_ratio(square.cache_info()) == pytest.approx(2 / 4)


def test_tracer_catches_library_recursion_and_restores():
    original = residues.m_poly
    residues.m_poly.cache_clear()
    with Tracer(apvar, "test") as tracer:
        assert residues.m_poly is not original
        apvar.m_poly(2 * 3 * 5 * 7, 3)
    assert residues.m_poly is original and apvar.m_poly is original
    m = tracer.metrics()
    # m_poly(210) recurses into every proper divisor once: 16 misses.
    assert m["residues.m_poly.calls"] > 16
    assert m["residues.m_poly.busy_s"] < sum(e - s for _, n, s, e, _ in tracer.spans if n == "residues.m_poly")
    assert m["residues.ap_main_term.calls"] >= 16
    assert m["arith.divisors.calls"] >= 1
    assert 0.0 < m["residues.m_poly.hit_ratio"] < 1.0


def test_pool_thread_spans_are_parented_to_the_pool_owner():
    table = apvar.sieve_dk(2000, 2)
    with Tracer(apvar, "test") as tracer:
        apvar.variance_total(table, 2000, 40, threads=2)
    (owner,) = [s for s in tracer.spans if s[1] == "stats.variance_total"]
    children = [s for s in tracer.spans if s[1] == "sieve.ap_sums"]
    assert len(children) == 40
    assert all(s[4] == owner[0] for s in children)
    m = tracer.metrics()
    assert 0.0 <= m["stats.variance_total.self_s"] <= m["stats.variance_total.busy_s"]
    assert m["sieve.ap_sums.bytes"] == 8 * 2000 * 40


@pytest.mark.parametrize("n", range(0, 11))
def test_no_tail_percentile_below_eleven_samples(n):
    assert run.tail_percentile(list(range(n))) is None


@pytest.mark.parametrize("n", [11, 12, 13, 20, 25, 99, 100, 101, 1000])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]
    p, value = run.tail_percentile(samples)
    beyond = sum(s > value for s in samples)
    assert beyond >= 10
    rank_next = math.ceil((p + 1) * n / 100)
    assert n - rank_next < 10
    if n == 100:
        assert (p, value) == (90, 90.0)
