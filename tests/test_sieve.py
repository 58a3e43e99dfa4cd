import cmath
import io
import math
import operator
import os
import struct
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from apvar import (
    DkTable,
    DomainError,
    ResourceError,
    ap_sums,
    d_k_of,
    exp_sum,
    read_table,
    sieve_dk,
    square_sum,
    total_sum,
    write_table,
)
from apvar import sieve as sieve_mod
from apvar.arith import d_k_max
from apvar.cli import EXIT_USAGE, main
from apvar.sieve import ResidueClassSums


def naive_convolved_values(x, k):
    """Oracle: k-1 rounds of the divisor convolution, plain Python loops."""
    vals = [0] + [1] * x
    for _ in range(k - 1):
        out = [0] * (x + 1)
        for d in range(1, x + 1):
            vd = vals[d]
            for m in range(d, x + 1, d):
                out[m] += vd
        vals = out
    return vals[1:]


class TestSieve:
    def test_divisor_counts_to_ten(self):
        t = sieve_dk(10, 2)
        assert t.values[1:].tolist() == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]

    def test_three_fold_to_six(self):
        t = sieve_dk(6, 3)
        assert t.values[1:].tolist() == [1, 3, 3, 6, 3, 9]

    def test_single_entry(self):
        for k in (1, 4, 8):
            assert sieve_dk(1, k).values[1:].tolist() == [1]

    def test_matches_naive_convolution(self):
        for k in (1, 2, 3, 5):
            t = sieve_dk(2000, k)
            assert t.values[1:].tolist() == naive_convolved_values(2000, k)

    def test_matches_prime_power_formula(self):
        for k in range(2, 7):
            t = sieve_dk(10**4, k)
            values = t.values.tolist()
            for n in range(1, 10**4 + 1):
                assert values[n] == d_k_of(n, k)

    def test_prime_entries_equal_k(self):
        for k in (2, 5):
            t = sieve_dk(10**3, k)
            for p in (2, 3, 97, 997):
                assert t.values[p] == k

    def test_small_segments_equal_whole_run(self, monkeypatch):
        base = sieve_dk(5000, 3)
        monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 64)
        segmented = sieve_dk(5000, 3)
        assert np.array_equal(base.values, segmented.values)

    def test_threaded_run_is_bitwise_identical(self, monkeypatch):
        monkeypatch.setattr(sieve_mod, "WORKERS", 8)  # 8 tasks whatever the host's cores
        monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 1024)
        serial = sieve_dk(30000, 3, threads=1)
        threaded = sieve_dk(30000, 3, threads=8)
        assert np.array_equal(serial.values, threaded.values)

    @pytest.mark.parametrize("threads", (2, 3))
    def test_round_robin_tasks_are_bitwise_identical(self, threads, monkeypatch):
        # 30 segments split round-robin into 2 or 3 tasks, one per core
        monkeypatch.setattr(sieve_mod, "WORKERS", 3)
        monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 1000)
        serial = sieve_dk(30000, 4, threads=1)
        dealt = sieve_dk(30000, 4, threads=threads)
        assert np.array_equal(serial.values, dealt.values)

    @pytest.mark.parametrize("segment", (1000, sieve_mod.SEGMENT_SIZE), ids=("1000", "default"))
    @pytest.mark.parametrize("threads", (1, 3))
    def test_every_entry_is_written(self, threads, segment, monkeypatch):
        # a table that starts as -1 everywhere: any entry no segment writes stays -1
        empty = np.empty

        def filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill(-1)
            return out

        monkeypatch.setattr(np, "empty", filled)
        monkeypatch.setattr(sieve_mod, "WORKERS", 3)
        monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", segment)
        for k in range(1, 9):
            got = sieve_dk(3000, k, threads=threads).values
            assert got[0] == 0
            assert got[1:].tolist() == [d_k_of(n, k) for n in range(1, 3001)], k

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sieve_dk(0, 2)
        with pytest.raises(DomainError):
            sieve_dk(10, 0)
        with pytest.raises(DomainError):
            sieve_dk(10, 9)

    def test_thread_count_below_one_rejected(self):
        with pytest.raises(DomainError, match="thread count"):
            sieve_dk(10, 2, threads=0)

    def test_sieve_threads_end_with_the_call(self):
        # a fresh interpreter, so that no thread of an earlier test counts
        started, left = thread_counts(
            "import apvar.sieve\napvar.sieve.WORKERS = 2\napvar.sieve.SEGMENT_SIZE = 1000\n"
            "sieve_dk(30000, 3, threads=2)"
        )
        assert started >= 1 and left == 0

    def test_memory_exhaustion_reports_required_bytes(self, monkeypatch):
        empty = np.empty

        def table_explodes(shape, *args, **kwargs):
            if shape == 10**6 + 1:
                raise MemoryError
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", table_explodes)
        with pytest.raises(ResourceError, match=r"needs ~\d+ bytes"):
            sieve_dk(10**6, 2)

    def test_segment_scratch_failure_is_resource_error(self, monkeypatch):
        empty = np.empty

        def scratch_explodes(shape, *args, **kwargs):
            if shape == 1000:  # each task's scratch, not the table
                raise MemoryError
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", scratch_explodes)
        monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 1000)
        for threads in (1, 2):  # raised in the caller, then in a sieve thread too
            with pytest.raises(ResourceError, match=r"needs ~\d+ bytes"):
                sieve_dk(10**6, 2, threads=threads)

    def test_int64_segments_when_d_k_passes_int32(self, monkeypatch):
        # d_8 to 2^31 - 1 reaches 1.18e11; a claimed bound of 2^31 makes the
        # tasks sieve in int64 segments, with the same table
        monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 1000)
        want = sieve_dk(30000, 8).values
        dtypes, segment = set(), sieve_mod._sieve_segment

        def recorded(out, lo, k, primes, scratch):
            dtypes.add(scratch[0].dtype)
            segment(out, lo, k, primes, scratch)

        monkeypatch.setattr(sieve_mod, "_sieve_segment", recorded)
        assert np.array_equal(sieve_dk(30000, 8).values, want)
        assert dtypes == {np.dtype(np.int32)}
        dtypes.clear()
        monkeypatch.setattr(sieve_mod, "d_k_max", lambda x, k: 2**31)
        assert np.array_equal(sieve_dk(30000, 8).values, want)
        assert dtypes == {np.dtype(np.int64)}

    def test_limit_beyond_int32_smooth_parts_rejected(self):
        with pytest.raises(DomainError, match="2\\^31"):
            sieve_dk(2**31, 2)


class TestMultiplicativeSieve:
    """The one-pass sieve against both oracles, over random limits, folds,
    segment sizes and thread counts."""

    @given(
        x=st.integers(1, 5000),
        k=st.integers(1, 8),
        segment_size=st.integers(1, 600),
        threads=st.sampled_from((1, 2, 3)),
    )
    # x = p^2 and p^2 - 1: the last segment gains or loses the prime p
    @example(x=49, k=3, segment_size=600, threads=1)
    @example(x=48, k=3, segment_size=7, threads=2)
    @example(x=4489, k=2, segment_size=600, threads=3)
    @example(x=4488, k=4, segment_size=600, threads=3)
    # 2^10 = 1024 ends the segment [513, 1024]; 3^6 = 729 begins [729, 1456]
    @example(x=1100, k=5, segment_size=512, threads=2)
    @example(x=1500, k=8, segment_size=728, threads=2)
    # the large primes 101, 401, 601 and 601, 1201, 1801, 3001 first in their
    # segments, and 7^4 = 2401 first in [2401, 3000]
    @example(x=700, k=3, segment_size=100, threads=3)
    @example(x=5000, k=2, segment_size=600, threads=2)
    @settings(max_examples=40, deadline=None)
    def test_matches_both_oracles(self, x, k, segment_size, threads):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sieve_mod, "SEGMENT_SIZE", segment_size)
            got = sieve_dk(x, k, threads=threads).values
        assert got[0] == 0
        assert got[1:].tolist() == naive_convolved_values(x, k)
        assert got[1:].tolist() == [d_k_of(n, k) for n in range(1, x + 1)]


class TestAggregates:
    def test_hyperbola_total(self):
        t = sieve_dk(100, 2)
        assert total_sum(t) == sum(100 // d for d in range(1, 101)) == 482

    def test_square_sum_small(self):
        t = sieve_dk(10, 2)
        assert square_sum(t) == 83

    def test_trivial_table(self):
        t = sieve_dk(1, 2)
        assert total_sum(t) == square_sum(t) == 1

    def test_square_sum_matches_direct(self):
        t = sieve_dk(3000, 4)
        direct = sum(int(v) ** 2 for v in t.values[1:])
        assert square_sum(t) == direct

    @pytest.mark.parametrize("past", (False, True))
    def test_square_sum_at_the_int64_bound_is_exact(self, past):
        # CHUNK * v^2 < 2^63 for the largest such v (int64 dot of each chunk);
        # v + 1 reaches 2^63, which one chunk's int64 dot would wrap, so Python
        # ints take over.  Either way the total of n > 2 CHUNK squares passes 2^63.
        v = math.isqrt((2**63 - 1) // sieve_mod.CHUNK) + past
        n = 2 * sieve_mod.CHUNK + 3
        t = DkTable(x=n, k=2, values=np.array([0] + [v] * n, dtype=np.int64))
        assert n * v * v >= 2**63
        assert square_sum(t) == n * v * v


class TestApSums:
    def test_single_class_is_total(self, table_k2_1e4):
        cls = ap_sums(table_k2_1e4, 1, 10**4)
        assert int(cls.sums[1]) == total_sum(table_k2_1e4)

    def test_parity_split_of_ten(self):
        t = sieve_dk(10, 2)
        cls = ap_sums(t, 2, 10)
        assert cls.sums[1] == 10  # odd
        assert cls.sums[2] == 17  # even

    def test_classes_beyond_cutoff_are_empty(self):
        t = sieve_dk(10, 2)
        cls = ap_sums(t, 12, 10)
        assert cls.sums[11] == 0 and cls.sums[12] == 0

    def test_matches_direct_enumeration(self, table_k3_1e4):
        v = table_k3_1e4.values
        for q, X in ((3, 10**4), (7, 9999), (12, 5000), (200, 8191)):
            cls = ap_sums(table_k3_1e4, q, X)
            for a in range(1, q + 1):
                direct = sum(int(v[n]) for n in range(1, X + 1) if n % q == a % q)
                assert int(cls.sums[a]) == direct

    @pytest.mark.parametrize("X", (1, 1023, 70 * 1024 + 69, 2**20 + 4099))
    def test_folded_rows_match_the_unfolded_reduction(self, X):
        # small q fold rows into rows of >= 1024 values; ragged X leaves a
        # partial fold, then a partial row
        values = np.random.default_rng(X).integers(0, 2**40, X + 1)
        values[0] = 0
        table = DkTable(x=X, k=2, values=values)
        for q in range(1, 71):
            full = X // q
            want = np.zeros(q + 1, dtype=np.int64)
            want[1:] = values[1 : full * q + 1].reshape(full, q).sum(axis=0)
            want[1 : X - full * q + 1] += values[full * q + 1 :]
            assert np.array_equal(ap_sums(table, q, X).sums, want), q

    def test_row_sums_equal_total_for_all_q(self, table_k2_1e4):
        x = 10**4
        total = total_sum(table_k2_1e4)
        for q in range(1, 201):
            cls = ap_sums(table_k2_1e4, q, x)
            assert int(cls.sums[1:].sum(dtype=np.int64)) == total

    def test_cutoff_beyond_table_rejected(self, table_k2_1e4):
        with pytest.raises(DomainError):
            ap_sums(table_k2_1e4, 3, 10**4 + 1)

    @pytest.mark.parametrize("q", (10**15, 10**20))
    def test_unallocatable_class_array_is_resource_error(self, q):
        with pytest.raises(ResourceError, match="bytes"):
            ap_sums(sieve_dk(10, 2), q, 10)


def class_sums_reference(values, q, X):
    """A(X; q, a) for a = 0..q (index 0 unused) in Python ints, from a list:
    one slice per class when classes are few, else one row of q consecutive
    n at a time."""
    if q <= math.isqrt(X):
        return [0] + [sum(values[a : X + 1 : q]) for a in range(1, q + 1)]
    ref = [0] * (q + 1)
    for lo in range(1, X + 1, q):
        row = values[lo : min(lo + q, X + 1)]
        ref[1 : len(row) + 1] = map(operator.add, ref[1 : len(row) + 1], row)
    return ref


def thread_counts(call: str) -> tuple[int, int]:
    """(threads started, threads left alive) by `call`, a statement over
    apvar's exports, counted in a fresh interpreter."""
    code = (
        "import threading\nimport numpy as np\nfrom apvar import *\n"
        "started, start = [], threading.Thread.start\n"
        "threading.Thread.start = lambda t: (started.append(t), start(t))[1]\n"
        f"before = threading.active_count()\n{call}\n"
        "print(len(started), threading.active_count() - before)"
    )
    src = str(Path(sieve_mod.__file__).parents[1])  # the apvar under test
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    started, left = run.stdout.split()
    return int(started), int(left)


LARGE_X = 2**21 + 1001  # odd, and not a multiple of 3 or 1000


@pytest.fixture(scope="module")
def large_table():
    """A hand-made table of more than 2^21 random int64 values below 2^40."""
    values = np.random.default_rng(2024).integers(0, 2**40, LARGE_X + 1)
    values[0] = 0
    return DkTable(x=LARGE_X, k=3, values=values), values.tolist()


class TestPooledApSums:
    """Large class sums, over more than 2^21 values with ragged last rows
    and moduli from 1 to past the cutoff, cut into one block of rows per
    core; the result must equal the Python-int sums exactly."""

    @pytest.fixture(autouse=True)
    def three_blocks(self, monkeypatch):
        """Cut the large table into three blocks, whatever the host's cores."""
        monkeypatch.setattr(sieve_mod, "WORKERS", 3)
        monkeypatch.setattr(sieve_mod, "SPLIT", 2**19)

    @pytest.mark.parametrize(
        "q", (1, 2, 3, 1000, LARGE_X // 2 + 1, LARGE_X, LARGE_X + 7)
    )
    def test_matches_python_ints(self, large_table, q):
        table, values = large_table
        assert ap_sums(table, q, LARGE_X).sums.tolist() == class_sums_reference(values, q, LARGE_X)

    @staticmethod
    def split_call(X, q):
        """ap_sums over X ones mod q, X an expression in the unpatched SPLIT,
        with two cores."""
        return (
            f"import apvar.sieve\napvar.sieve.WORKERS = 2\nX = {X}\n"
            f"ap_sums(DkTable(x=X, k=2, values=np.ones(X + 1, np.int32)), {q}, X)"
        )

    def test_below_the_split_starts_no_thread(self):
        # folded rows of 1024 values, then under 1024 rows of one value:
        # each reduction holds under 2 * SPLIT values
        assert thread_counts(self.split_call("2 * apvar.sieve.SPLIT - 1", 1)) == (0, 0)

    def test_above_the_split_threads_end_with_the_call(self):
        started, left = thread_counts(self.split_call("4 * apvar.sieve.SPLIT", 1000))
        assert started >= 1 and left == 0

    def test_split_equals_the_serial_reduction(self, monkeypatch):
        # 100 rows of 5000 int32 values near INT32_TOP cut into blocks of
        # 33, 33 and 34 rows: the cuts at rows 33 and 66 fall inside int32
        # chunks of 32 rows
        q, X = 5000, 100 * 5000 + 123
        values = np.random.default_rng(29).integers(*NEAR_TOP, X + 1, endpoint=True)
        values[0] = 0
        table = narrow_table(values)
        assert (2**31 - 1) // table.top == 32
        partials, on_cores = [], sieve_mod._on_cores

        def recorded(fn, parts):
            partials.extend(out := on_cores(fn, parts))
            return out

        monkeypatch.setattr(sieve_mod, "_on_cores", recorded)
        monkeypatch.setattr(sieve_mod, "SPLIT", 100000)
        got = ap_sums(table, q, X).sums
        rows = values[1 : 100 * q + 1].reshape(100, q)
        want = [rows[lo:hi].sum(axis=0) for lo, hi in ((0, 33), (33, 66), (66, 100))]
        assert len(partials) == 3
        assert all(np.array_equal(a, b) for a, b in zip(partials, want))
        assert np.array_equal(got, int64_class_sums(values, q, X))

    def test_a_worker_error_reaches_the_caller(self, large_table, monkeypatch):
        on_cores = sieve_mod._on_cores

        def fail_off_the_caller(fn, parts):
            def part(i):
                if threading.current_thread() is not threading.main_thread():
                    raise MemoryError
                return fn(i)

            return on_cores(part, parts)

        monkeypatch.setattr(sieve_mod, "_on_cores", fail_off_the_caller)
        with pytest.raises(MemoryError):
            ap_sums(large_table[0], 1000, LARGE_X)

    def test_concurrent_callers_get_their_own_sums(self, large_table):
        # more callers than cores, with short switch intervals: every
        # caller must get its own exact sums
        table, values = large_table
        want = {q: class_sums_reference(values, q, LARGE_X) for q in (2, 1000)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as callers:
                futures = [
                    (q, callers.submit(ap_sums, table, q, LARGE_X)) for q in (2, 1000) * 6
                ]
                for q, future in futures:
                    assert future.result(timeout=60).sums.tolist() == want[q]
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "call",
    (
        "apvar.sieve.SEGMENT_SIZE = 1000\nsieve_dk(30000, 3, threads=8)",
        "apvar.sieve.SEGMENT_SIZE = 1000\nsieve_dk(30000, 3)",
        "X = 2**23\nap_sums(DkTable(x=X, k=2, values=np.ones(X + 1, np.int32)), 1000, X)",
    ),
    ids=("sieve_dk", "sieve_dk-default", "ap_sums"),
)
def test_three_cores_run_three_tasks_on_two_threads(call):
    # one task per core, the caller's thread running the first: however many
    # tasks the call could make, two threads start and none outlives the call
    assert thread_counts(f"import apvar.sieve\napvar.sieve.WORKERS = 3\n{call}") == (2, 0)


def int64_class_sums(values, q, X):
    """A(X; q, a) for a = 0..q by the plain int64 reduction of a value
    array: full rows of q, then the ragged tail."""
    wide = np.asarray(values, dtype=np.int64)
    full = X // q
    want = np.zeros(q + 1, dtype=np.int64)
    want[1:] = wide[1 : full * q + 1].reshape(full, q).sum(axis=0, dtype=np.int64)
    want[1 : X - full * q + 1] += wide[full * q + 1 : X + 1]
    return want


def narrow_table(values, k=2):
    """An int32 DkTable of the given values."""
    values = np.asarray(values, dtype=np.int32)
    return DkTable(x=len(values) - 1, k=k, values=values)


# Values whose int32 column sum wraps after 33 rows: ap_sums adds them in
# int32 exactly 32 rows at a time.
NEAR_TOP = (sieve_mod.INT32_TOP - 2**20, sieve_mod.INT32_TOP)


class TestNarrowApSums:
    """An int32 table sums chunks of rows in int32, rows * top < 2^31 rows
    at a time; each result must equal the int64 reduction."""

    @given(
        X=st.integers(1, 70000),
        seed=st.integers(0, 2**32 - 1),
        extra=st.lists(st.integers(1, 70), max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    @example(X=2048, seed=0, extra=[])
    @example(X=33 * 1024 + 17, seed=1, extra=[1])
    def test_near_the_int32_bound(self, X, seed, extra):
        values = np.random.default_rng(seed).integers(*NEAR_TOP, X + 1, endpoint=True)
        values[0] = 0
        table = narrow_table(values)
        assert table.values.dtype == np.int32
        for q in [*range(1, 71), X // 2 + 1, X + 7]:
            assert np.array_equal(ap_sums(table, q, X).sums, int64_class_sums(values, q, X)), q
        for q in extra:  # a shorter cutoff on the same table
            cut = max(1, X - q)
            assert np.array_equal(ap_sums(table, q, cut).sums, int64_class_sums(values, q, cut))

    @pytest.mark.parametrize("q", (1, 3, 1000, 12345, LARGE_X // 2 + 1, LARGE_X + 7))
    def test_pooled_near_the_int32_bound(self, q):
        # more than 2^21 values: many int32 chunks of 32 rows, ragged last rows
        values = np.random.default_rng(q).integers(*NEAR_TOP, LARGE_X + 1, endpoint=True)
        values[0] = 0
        want = int64_class_sums(values, q, LARGE_X)
        assert np.array_equal(ap_sums(narrow_table(values), q, LARGE_X).sums, want)

    def test_loaded_table_sums_equal_the_sieved(self, table_k3_1e6, tmp_path):
        path = tmp_path / "d3.dktb"
        write_table(table_k3_1e6, path)
        loaded = read_table(path)
        assert loaded.values.dtype == np.int32
        for q in (1, 2, 3, 1024, 99991, 10**6 // 2 + 1, 10**6 + 7):
            want = ap_sums(table_k3_1e6, q, 10**6).sums
            assert np.array_equal(ap_sums(loaded, q, 10**6).sums, want), q

    def test_square_sum_does_not_wrap(self):
        # an int32 dot product of these values wraps; square_sum widens
        values = np.array([0, 46341, 46341, 3], dtype=np.int32)
        assert int(np.dot(values, values)) != 2 * 46341**2 + 9
        assert square_sum(narrow_table(values)) == 2 * 46341**2 + 9

    def test_multiple_sums_accumulate_in_int64(self):
        values = np.array([0] + [2**31 - 1] * 6, dtype=np.int32)
        out = sieve_mod.multiple_sums(values, 3)
        assert out.dtype == np.int64
        assert out.tolist() == [0, 6 * (2**31 - 1), 3 * (2**31 - 1), 2 * (2**31 - 1)]
        wide = sieve_mod.multiple_sums(values.astype(object), 3)
        assert wide.dtype == object and wide.tolist() == out.tolist()
        # one strided sum per e, against the hyperbola split's two halves:
        # Q below, at and above sqrt(n), n = len - 1, up to n + 1
        rng = np.random.default_rng(18)
        for dtype, top in ((np.int32, 2**31), (np.int64, 2**40), (object, 2**70)):
            for size in (1, 2, 50, 1024, 1025):
                values = rng.integers(-(2**31), 2**31, size).tolist()
                a = np.array([v * (top >> 31) for v in values], dtype=dtype)
                root = math.isqrt(size - 1)
                for Q in sorted({1, max(root - 1, 1), max(root, 1), root + 1, max(size - 1, 1), size}):
                    got = sieve_mod.multiple_sums(a, Q)
                    assert got.dtype == (object if dtype is object else np.int64)
                    want = [0] + [sum(a[e::e].tolist()) for e in range(1, Q + 1)]
                    assert got.tolist() == want, (dtype, size, Q)

    def test_autocorrelation_of_int32_equals_int64(self, table_k3_1e4):
        values = table_k3_1e4.values[1:]
        want = sieve_mod.autocorrelation(values)
        assert np.array_equal(sieve_mod.autocorrelation(values.astype(np.int32)), want)

    @pytest.mark.parametrize(
        "low, top, products", ((0, 2**40, 6), (-(2**40), 2**40, 6)), ids=("three-limb", "signed")
    )
    def test_autocorrelation_matches_python_ints(self, monkeypatch, low, top, products):
        # 2000 values below 2^40 in magnitude take three limbs, six FFT
        # products; C[h] from Python-int dot products of the shifted values
        values = np.random.default_rng(35).integers(low, top, 2000)
        irfft, calls = np.fft.irfft, []
        monkeypatch.setattr(np.fft, "irfft", lambda *a: calls.append(1) or irfft(*a))
        got = sieve_mod.autocorrelation(values)
        assert got.dtype == object and len(calls) == products
        wide = values.astype(object)
        want = [np.dot(wide[: len(wide) - h], wide[h:]) for h in range(len(wide))]
        assert got.tolist() == want


@pytest.mark.parametrize("k", (1, 2, 3))
def test_congruence_sums_satisfy_the_montgomery_hooley_identity(k):
    # sum_{q<=Q} sum_a A(x; q, a)^2 = Q C(0) + 2 sum_{1<=h<x} tau_Q(h) C(h):
    # the pairs n < m with q | m - n, counted by h = m - n instead of by q
    x = 55**2  # isqrt(x) = 55, isqrt(x - 1) = 54: the split point moves at Q = 55
    table = sieve_dk(x, k)
    corr = sieve_mod.autocorrelation(table.values[1:]).tolist()
    for Q in (1, math.isqrt(x), math.isqrt(x) + 1, x):
        tau = np.zeros(x, dtype=np.int64)  # tau[h] = #{q <= Q : q | h}
        for q in range(1, Q + 1):
            tau[q::q] += 1
        right = Q * corr[0] + 2 * sum(t * c for t, c in zip(tau[1:].tolist(), corr[1:]))
        assert sum(sieve_mod.congruence_sums(table, x, Q)[1:].tolist()) == right, Q


class TestTableGuards:
    @pytest.mark.parametrize("dtype", (np.float64, np.int16, np.uint32, np.uint64, object))
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(DomainError, match="int32 or int64"):
            DkTable(x=2, k=2, values=np.array([0, 1, 2], dtype=dtype))

    @pytest.mark.parametrize(
        "values", ([0, -1, 2], [0, 1, -(2**31)], [0, sieve_mod.INT32_TOP + 1, 2], [0, 2**31 - 1, 2])
    )
    def test_int32_values_beyond_0_to_int32_top_rejected(self, values):
        with pytest.raises(DomainError, match="must lie in"):
            DkTable(x=2, k=2, values=np.array(values, dtype=np.int32))

    @pytest.mark.parametrize(
        "values", ([0] + [2**60] * 16, [0] + [-(2**63)] + [0] * 15, [0] * 16 + [-1], [-1])
    )
    def test_int64_table_whose_sums_could_wrap_rejected(self, values):
        # 16 * 2^60 = 2^64: total_sum and ap_sums used to read 0; a negative
        # value reads 2^63 or more to the unsigned pass, even at x = 0
        with pytest.raises(DomainError, match="int64"):
            DkTable(x=len(values) - 1, k=1, values=np.array(values, dtype=np.int64))

    @pytest.mark.parametrize("dtype", (np.int32, np.int64))
    @pytest.mark.parametrize("length", (0, 4, 6))
    def test_values_must_run_to_x(self, dtype, length):
        with pytest.raises(DomainError, match="needs 5 values"):
            DkTable(x=4, k=2, values=np.ones(length, dtype=dtype))

    def test_int32_table_records_its_largest_value(self):
        values = np.array([0, 7, sieve_mod.INT32_TOP, 3], dtype=np.int32)
        assert DkTable(x=3, k=2, values=values).top == sieve_mod.INT32_TOP
        assert DkTable(x=3, k=2, values=values.astype(np.int64)).top == sieve_mod.INT32_TOP


class TestExpSum:
    def test_zero_fraction_is_total(self):
        t = sieve_dk(100, 2)
        s = exp_sum(ap_sums(t, 1, 100), 0)
        assert s.re == pytest.approx(482.0, abs=1e-9)
        assert s.im == pytest.approx(0.0, abs=1e-9)

    def test_half_fraction_is_parity_difference(self):
        t = sieve_dk(10, 2)
        s = exp_sum(ap_sums(t, 2, 10), 1)
        assert s.re == pytest.approx(7.0, abs=1e-9)

    def test_third_fraction_three_terms(self):
        t = sieve_dk(3, 2)
        s = exp_sum(ap_sums(t, 3, 3), 1)
        w = cmath.exp(2j * math.pi / 3)
        expected = 1 * w + 2 * w**2 + 2
        assert s.value == pytest.approx(expected, abs=1e-12)

    def test_reduction_mod_q(self, table_k2_1e4):
        cls = ap_sums(table_k2_1e4, 7, 10**4)
        assert exp_sum(cls, 3).value == pytest.approx(exp_sum(cls, 10).value, abs=1e-9)

    def test_magnitude_bounded_by_total(self, table_k2_1e4):
        total = total_sum(table_k2_1e4)
        for q, a in ((5, 2), (16, 7), (20, 19)):
            s = exp_sum(ap_sums(table_k2_1e4, q, 10**4), a)
            assert abs(s.value) <= total + 1e-6

    def test_matches_direct_summation(self, table_k2_1e4):
        v = table_k2_1e4.values
        total = total_sum(table_k2_1e4)
        for q in (2, 3, 11, 20):
            for X in (97, 4096, 10**4):
                cls = ap_sums(table_k2_1e4, q, X)
                for a in (1, q - 1):
                    direct = sum(
                        int(v[n]) * cmath.exp(2j * math.pi * a * n / q)
                        for n in range(1, X + 1)
                    )
                    got = exp_sum(cls, a).value
                    assert abs(got - direct) <= 1e-9 * total

    def test_matches_mpmath_at_a_large_prime(self):
        """Random class sums below 2^20 mod the prime 99991 at a = q - 1:
        within 1e-13 of their mass from a 25-digit sum, which needs the
        exponent r n reduced mod q before it becomes an angle."""
        import mpmath as mp

        q = 99991
        a = q - 1
        sums = np.random.default_rng(99991).integers(0, 2**20, q + 1)
        sums[0] = 0
        got = exp_sum(ResidueClassSums(q=q, X=q, k=2, sums=sums), a).value
        with mp.workdps(25):
            step = 2 * mp.pi / q
            want = mp.fsum(
                int(sums[n]) * mp.expj(step * (a * n % q)) for n in range(1, q + 1)
            )
            err = float(abs(mp.mpc(got) - want))
        assert err <= 1e-13 * int(sums.sum())

    def test_answers_without_blas(self, monkeypatch, table_k2_1e4):
        def no_blas(*args, **kwargs):
            raise AssertionError("exp_sum called np.dot")

        want = exp_sum(ap_sums(table_k2_1e4, 97, 10**4), 5).value
        monkeypatch.setattr(sieve_mod.np, "dot", no_blas)
        assert exp_sum(ap_sums(table_k2_1e4, 97, 10**4), 5).value == want

    def test_modulus_beyond_int64_exponents_rejected(self):
        cls = ResidueClassSums(q=2**32, X=1, k=2, sums=np.zeros(2, dtype=np.int64))
        with pytest.raises(DomainError, match="int64"):
            exp_sum(cls, 1)


def dktb(x, k, values):
    """A hand-made DKTB file: header (magic, version 1, x, k), then u64 values."""
    return struct.pack("<4sIQI", b"DKTB", 1, x, k) + struct.pack(
        f"<{len(values)}Q", *values
    )


def rejection(path):
    """The reason read_table gives for rejecting the file at path: its
    DomainError's message after the leading path."""
    with pytest.raises(DomainError) as exc:
        read_table(path)
    prefix = f"{path}: "
    assert str(exc.value).startswith(prefix)
    return str(exc.value)[len(prefix) :]


class TestBinaryFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        t = sieve_dk(1000, 3)
        path = tmp_path / "table.dktb"
        write_table(t, path)
        back = read_table(path)
        assert back.x == t.x and back.k == t.k
        assert np.array_equal(back.values, t.values)
        write_table(back, tmp_path / "again.dktb")
        assert (tmp_path / "again.dktb").read_bytes() == path.read_bytes()

    def test_header_layout(self, tmp_path):
        t = sieve_dk(3, 2)
        path = tmp_path / "t.dktb"
        write_table(t, path)
        blob = path.read_bytes()
        assert blob[:4] == b"DKTB"
        assert int.from_bytes(blob[4:8], "little") == 1  # version
        assert int.from_bytes(blob[8:16], "little") == 3  # x
        assert int.from_bytes(blob[16:20], "little") == 2  # k
        assert blob[20:] == (1).to_bytes(8, "little") + (2).to_bytes(
            8, "little"
        ) + (2).to_bytes(8, "little")

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dktb"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(DomainError):
            read_table(path)

    def test_truncated_payload_rejected(self, tmp_path):
        t = sieve_dk(10, 2)
        path = tmp_path / "short.dktb"
        write_table(t, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DomainError):
            read_table(path)

    def test_hand_made_file_is_read(self, tmp_path):
        path = tmp_path / "ok.dktb"
        path.write_bytes(dktb(3, 2, [1, 2, 2]))
        assert read_table(path).values.tolist() == [0, 1, 2, 2]

    @pytest.mark.parametrize("k", (0, 9, 2**32 - 1))
    def test_fold_outside_range_rejected(self, tmp_path, k):
        path = tmp_path / "bad_k.dktb"
        path.write_bytes(dktb(2, k, [1, 2]))
        with pytest.raises(DomainError, match="fold"):
            read_table(path)

    @pytest.mark.parametrize("value", (2**63, 2**64 - 1))
    def test_value_beyond_int64_rejected(self, tmp_path, value):
        path = tmp_path / "wrap.dktb"
        path.write_bytes(dktb(3, 2, [1, value, 2]))
        assert rejection(path) == f"value {value} at n=2 exceeds 2 = max d_2(n), n <= 3"

    def test_total_that_would_wrap_int64_rejected(self, tmp_path):
        # each value fits, but their sum would wrap to -2^63
        path = tmp_path / "sum_wraps.dktb"
        path.write_bytes(dktb(2, 2, [2**62, 2**62]))
        assert rejection(path) == f"value {2**62} at n=1 exceeds 2 = max d_2(n), n <= 2"


class TestNarrowLoading:
    """read_table takes the width from the header, int32 exactly when
    d_k_max(x, k) <= INT32_TOP, reads the payload once and rejects a value
    above that bound; the file bytes do not depend on the width."""

    @pytest.mark.parametrize("x, dtype", ((362879, np.int32), (362880, np.int64)))
    def test_width_follows_the_header(self, tmp_path, x, dtype):
        # d_8 first passes INT32_TOP at 9! = 362880, where it is 72,483,840
        table = sieve_dk(x, 8)
        path = tmp_path / "d8.dktb"
        write_table(table, path)
        loaded = read_table(path)
        assert loaded.values.dtype == dtype
        assert np.array_equal(loaded.values, table.values)
        assert loaded.top == table.top == int(table.values.max())

    @pytest.mark.parametrize("x", (362879, 362880))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_top_is_the_largest_d_k(self, tmp_path, x, k):
        table = sieve_dk(x, k)
        path = tmp_path / "dk.dktb"
        write_table(table, path)
        assert table.top == read_table(path).top == d_k_max(x, k)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_loaded_values_equal_the_sieved(self, tmp_path, k):
        table = sieve_dk(3 * sieve_mod.CHUNK + 5, k)
        path = tmp_path / "dk.dktb"
        write_table(table, path)
        loaded = read_table(path)
        assert loaded.values.dtype == np.int32
        assert np.array_equal(loaded.values, table.values)

    def test_wide_payload_is_read_once(self, tmp_path, monkeypatch):
        x = 362880
        path = tmp_path / "d8.dktb"
        write_table(sieve_dk(x, 8), path)
        reads = []

        class Counted(io.BufferedReader):
            def readinto(self, buffer):
                reads.append(super().readinto(buffer))
                return reads[-1]

            def seek(self, *args):
                raise AssertionError("read_table seeks")

        monkeypatch.setattr(
            sieve_mod, "open", lambda path, mode: Counted(io.FileIO(path, mode)), raising=False
        )
        loaded = read_table(path)
        assert loaded.values.dtype == np.int64
        assert sum(reads) == 8 * x and len(reads) == -(-x // sieve_mod.CHUNK)

    @pytest.mark.parametrize("k", (2, 3))
    def test_value_above_the_bound_past_the_first_buffer_rejected(self, tmp_path, k):
        x, n = sieve_mod.CHUNK + 10, sieve_mod.CHUNK + 5
        bound = d_k_max(x, k)
        values = sieve_dk(x, k).values[1:].tolist()
        values[n - 1] = bound + 1
        path = tmp_path / "late.dktb"
        path.write_bytes(dktb(x, k, values))
        want = f"value {bound + 1} at n={n} exceeds {bound} = max d_{k}(n), n <= {x}"
        assert rejection(path) == want

    @pytest.mark.parametrize("top", (sieve_mod.INT32_TOP, sieve_mod.INT32_TOP + 1, 2**31))
    def test_hand_made_values_above_the_bound_rejected(self, tmp_path, top):
        path = tmp_path / "edge.dktb"
        path.write_bytes(dktb(3, 2, [1, top, 2]))
        assert rejection(path) == f"value {top} at n=2 exceeds 2 = max d_2(n), n <= 3"

    def test_counting_numbers_rejected_past_the_bound(self, tmp_path):
        x = sieve_mod.CHUNK + 10
        bound = d_k_max(x, 2)
        path = tmp_path / "counting.dktb"
        path.write_bytes(dktb(x, 2, range(1, x + 1)))
        assert rejection(path).startswith(f"value {bound + 1} at n={bound + 1} exceeds {bound} ")

    def test_value_beyond_int64_past_the_first_buffer_rejected(self, tmp_path):
        x = sieve_mod.CHUNK + 3
        path = tmp_path / "late_wrap.dktb"
        path.write_bytes(dktb(x, 2, [1] * (x - 1) + [2**63]))
        assert rejection(path).startswith(f"value {2**63} at n={x} exceeds {d_k_max(x, 2)} ")

    def test_value_within_the_bound_that_is_not_d_k_rejected(self, tmp_path):
        # d_2(5000) = 20 written as 7: no bound catches it, the sieve does
        values = sieve_dk(10**4, 2).values[1:].tolist()
        values[5000 - 1] = 7
        path = tmp_path / "d2.dktb"
        path.write_bytes(dktb(10**4, 2, values))
        assert rejection(path) == "value 7 at n=5000 is not d_2(5000) = 20"

    @pytest.mark.parametrize("i", (1, 2048, 4096))
    @pytest.mark.parametrize("k", (3, 8))
    def test_sampled_value_past_the_head_that_is_not_d_k_rejected(self, tmp_path, k, i):
        # the i-th of SAMPLED evenly spaced positions in (CHUNK, x]; the last is x
        x = 3 * 10**5
        n = sieve_mod.CHUNK + (x - sieve_mod.CHUNK) * i // sieve_mod.SAMPLED
        values = sieve_dk(x, k).values[1:].tolist()
        d, values[n - 1] = values[n - 1], values[n - 1] - 1
        path = tmp_path / "dk.dktb"
        path.write_bytes(dktb(x, k, values))
        assert rejection(path) == f"value {d - 1} at n={n} is not d_{k}({n}) = {d}"

    def test_narrow_and_wide_tables_write_the_same_bytes(self, tmp_path):
        t = sieve_dk(3 * sieve_mod.CHUNK + 5, 3)
        wide, narrow = tmp_path / "wide.dktb", tmp_path / "narrow.dktb"
        write_table(t, wide)
        loaded = read_table(wide)
        assert loaded.values.dtype == np.int32
        write_table(loaded, narrow)
        assert narrow.read_bytes() == wide.read_bytes()


@st.composite
def corrupt_dktb(draw):
    """A valid small DKTB file with one fault: a truncated header, a wrong
    magic, version, fold k or count x, or a payload of the wrong size."""
    x = draw(st.integers(1, 12))
    k = draw(st.integers(1, 8))
    values = draw(st.lists(st.integers(0, 1000), min_size=x, max_size=x))
    header = {"magic": b"DKTB", "version": 1, "x": x, "k": k}
    payload = struct.pack(f"<{x}Q", *values)
    fault = draw(st.sampled_from(("truncated header", "magic", "version", "k", "x", "payload")))
    if fault == "truncated header":
        blob = dktb(x, k, values)
        return fault, blob[: draw(st.integers(0, 19))]
    if fault == "magic":
        header["magic"] = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"DKTB"))
    elif fault == "version":
        header["version"] = draw(st.integers(0, 2**32 - 1).filter(lambda v: v != 1))
    elif fault == "k":
        header["k"] = draw(st.one_of(st.just(0), st.integers(9, 2**32 - 1)))
    elif fault == "x":
        header["x"] = draw(st.integers(0, 2**64 - 1).filter(lambda n: n != x))
    else:
        cut = draw(st.integers(-len(payload), 64).filter(lambda n: n != 0))
        payload = payload[:cut] if cut < 0 else payload + bytes(cut)
    return fault, struct.pack("<4sIQI", *header.values()) + payload


FUZZ = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCorruptTables:
    """Damaged DKTB files fail as usage errors, never as tracebacks or
    silently wrapped values."""

    @given(corrupt_dktb())
    @settings(max_examples=150, **FUZZ)
    def test_read_table_raises_domain_error(self, tmp_path, case):
        _, blob = case
        path = tmp_path / "corrupt.dktb"
        path.write_bytes(blob)
        with pytest.raises(DomainError):
            read_table(path)

    @given(corrupt_dktb())
    @settings(max_examples=60, **FUZZ)
    def test_expsum_exits_two_with_empty_stdout(self, tmp_path, capsys, case):
        fault, blob = case
        path = tmp_path / "corrupt.dktb"
        path.write_bytes(blob)
        argv = ["expsum", "--k", "2", "--x", "1", "--q", "1", "--a", "1", "--table", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE, fault
        assert captured.out == "" and captured.err.startswith("error: ")
