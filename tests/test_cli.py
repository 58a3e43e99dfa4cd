import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from apvar import cli as cli_mod
from apvar import stats
from apvar import read_table, sieve_dk, total_sum, write_table
from apvar.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, SUITES, main
from apvar.errors import DomainError

GAMMA0 = 0.5772156649015328606065121

# Pinned `apvar farey --gamma g` CSV: sha256, line count, size in bytes
FAREY_CSV = {
    300: ("fb59fad4b6274682cdc6954dd16dfec28a2fea4dcf240cdd4aabbf7921341ecb", 27399, 622327),
    1000: ("c807438c6a39a09133c6f3b0d81f5ef604c8b3a1bd60dcaf731aa138ad2159e6", 304193, 7930461),
}

# `verify --suite farey --gamma 2000` stdout, as the per-order sweep printed it
FAREY_SUITE_2000 = (
    '{"check": "farey containment+tiling gamma<=2000 (811784892 arcs)", "lhs": 0.0, '
    '"rhs": 0.0, "rel_diff": 0.0, "pass": true, "gamma": null}\n'
    '{"check": "farey length histogram gamma<=1000", "lhs": 1.0, "rhs": 1.0, '
    '"rel_diff": 0.0, "pass": true, "q": null}\n'
)

# Pinned `apvar main-term --k K --q Q --a A --x 1e6` stdout: sha256 by "K,Q,A"
# for K = 1..8, Q in (1, 2, 12, 30, 97, 360, 1024) and A in (1, 5, Q), A <= Q
MAIN_TERM_SHA256 = json.loads((Path(__file__).parent / "main_term_sha256.json").read_text())

# Pinned stdout of the variance engine (`variance` and the growth suite):
# sha256 by command line
ENGINE_SHA256 = json.loads((Path(__file__).parent / "engine_sha256.json").read_text())


def dispatch_settings():
    """NPY_DISABLE_CPU_FEATURES values from numpy's default dispatch down:
    none, the AVX-512 groups the host has, and those with X86_V3."""
    umath = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath
    has = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    avx512 = [f for f in has if f.startswith(("AVX512", "X86_V4"))]
    return ["", " ".join(avx512), " ".join([f for f in has if f == "X86_V3"] + avx512)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSieveCommand:
    def test_writes_decodable_table(self, tmp_path, capsys):
        out = tmp_path / "t.dktb"
        code, _, _ = run(capsys, "sieve", "--k", "2", "--x", "100", "--out", str(out))
        assert code == EXIT_OK
        table = read_table(out)
        assert total_sum(table) == 482

    def test_single_value(self, tmp_path, capsys):
        out = tmp_path / "one.dktb"
        code, _, _ = run(capsys, "sieve", "--k", "2", "--x", "1", "--out", str(out))
        assert code == EXIT_OK
        assert read_table(out).values[1:].tolist() == [1]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.dktb", tmp_path / "b.dktb"
        run(capsys, "sieve", "--k", "3", "--x", "4096", "--out", str(a))
        run(capsys, "sieve", "--k", "3", "--x", "4096", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.dktb", tmp_path / "b.dktb"
        run(capsys, "sieve", "--k", "3", "--x", "32768", "--threads", "1", "--out", str(a))
        run(capsys, "sieve", "--k", "3", "--x", "32768", "--threads", "8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestMainTermCommand:
    @pytest.mark.parametrize("case", sorted(MAIN_TERM_SHA256))
    def test_stdout_bytes_are_pinned(self, capsys, case):
        k, q, a = case.split(",")
        code, out, _ = run(capsys, "main-term", "--k", k, "--q", q, "--a", a, "--x", "1e6")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == MAIN_TERM_SHA256[case]

    def test_stdout_bytes_hold_on_another_kernel(self):
        # the same 144 digests from a process on OpenBLAS's Haswell kernel with
        # numpy's AVX-512 dispatch off: the main terms use no BLAS, and no
        # exp, log or power whose rounding depends on the SIMD level
        code = (
            "import contextlib, hashlib, io, json, sys\n"
            "from apvar.cli import main\n"
            "out = {}\n"
            "for case in json.loads(sys.stdin.read()):\n"
            "    buf = io.StringIO()\n"
            "    k, q, a = case.split(',')\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        main(['main-term', '--k', k, '--q', q, '--a', a, '--x', '1e6'])\n"
            "    out[case] = hashlib.sha256(buf.getvalue().encode()).hexdigest()\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(cli_mod.__file__).parents[1])  # the apvar under test
        env = {
            **os.environ,
            "PYTHONPATH": src,
            "OPENBLAS_CORETYPE": "Haswell",
            "NPY_DISABLE_CPU_FEATURES": dispatch_settings()[1],
        }
        proc = subprocess.run(
            [sys.executable, "-c", code],
            input=json.dumps(sorted(MAIN_TERM_SHA256)),
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert json.loads(proc.stdout) == MAIN_TERM_SHA256

    def test_trivial_modulus(self, capsys):
        code, out, _ = run(capsys, "main-term", "--k", "2", "--q", "1", "--a", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["f"]["coeffs"] == pytest.approx([0.1544313, 1.0], abs=1e-7)
        assert payload["f"]["a"] == 1

    def test_constant_density_for_k1(self, capsys):
        code, out, _ = run(capsys, "main-term", "--k", "1", "--q", "1", "--a", "1")
        assert json.loads(out)["f"]["coeffs"] == [1.0]

    def test_odd_class_mod_two(self, capsys):
        code, out, _ = run(capsys, "main-term", "--k", "2", "--q", "2", "--a", "1")
        payload = json.loads(out)
        assert payload["f"]["coeffs"] == pytest.approx([0.7703629, 0.5], abs=1e-7)
        assert payload["M"]["coeffs"] == pytest.approx(
            [2 * GAMMA0 - 1 - 2 * math.log(2), 1.0], abs=1e-12
        )

    def test_evaluation_at_x(self, capsys):
        code, out, _ = run(
            capsys, "main-term", "--k", "2", "--q", "1", "--a", "1", "--x", "100"
        )
        assert json.loads(out)["f"]["value_at_x"] == pytest.approx(4.7596015, abs=1e-6)

    @pytest.mark.parametrize("x", ("nan", "inf", "-inf", "0.5"))
    def test_cutoff_not_finite_or_below_one_is_usage_error(self, capsys, x):
        # nan and inf used to print NaN/Infinity, which strict JSON rejects
        code, out, err = run(
            capsys, "main-term", "--k", "2", "--q", "1", "--a", "1", f"--x={x}"
        )
        assert code == EXIT_USAGE
        assert out == "" and "error" in err

    def test_cutoff_one_gives_the_constant_term(self, capsys):
        code, out, _ = run(
            capsys, "main-term", "--k", "3", "--q", "12", "--a", "4", "--x", "1"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        for poly in (payload["f"], payload["M"]):
            assert poly["value_at_x"] == poly["coeffs"][0]

    def test_class_beyond_modulus_is_usage_error(self, capsys):
        for q, a in (("3", "4"), ("0", "1")):
            code, _, err = run(capsys, "main-term", "--k", "2", "--q", q, "--a", a)
            assert code == EXIT_USAGE
            assert "need 1 <= a <= q" in err

    def test_modulus_past_int64_is_usage_error(self, capsys):
        code, out, err = run(capsys, "main-term", "--k", "2", "--q", str(2**63), "--a", "1")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")

    def test_prime_modulus_past_the_trial_division_bound_is_resource_error(self, capsys):
        # 2^61 - 1 is prime: trial division up to its square root ran for minutes
        start = time.perf_counter()
        code, out, err = run(capsys, "main-term", "--k", "2", "--q", str(2**61 - 1), "--a", "1")
        assert code == EXIT_RESOURCE
        assert out == "" and err.startswith("resource limit: ")
        assert time.perf_counter() - start < 5.0

    def test_least_prime_past_the_factor_bound_is_resource_error(self, capsys):
        # (2^20 + 1)^2 = 1099513724929 is the bound; 1099513724941 the next prime
        code, out, err = run(capsys, "main-term", "--k", "2", "--q", "1099513724941", "--a", "1")
        assert code == EXIT_RESOURCE
        assert out == "" and err.startswith("resource limit: ")

    # 2^40 + 15 is a prime below (2^20 + 1)^2, which trial division certifies
    @pytest.mark.parametrize("q", (2**60, 10**12 + 39, 2**40 + 15))
    def test_large_moduli_within_the_bound_succeed(self, capsys, q):
        code, out, _ = run(capsys, "main-term", "--k", "2", "--q", str(q), "--a", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["f"]["q"] == payload["M"]["q"] == q


class TestVarianceCommand:
    def test_single_modulus_row(self, capsys):
        code, out, _ = run(capsys, "variance", "--k", "2", "--x", "1000", "--Q", "1")
        lines = out.strip().splitlines()
        assert code == EXIT_OK
        assert lines[0] == "q,V_q"
        assert len(lines) == 3 and lines[2].startswith("total,")
        v1 = float(lines[1].split(",")[1])
        assert v1 == pytest.approx(float(lines[2].split(",")[1]), rel=1e-15)

    def test_row_count_is_Q(self, capsys):
        code, out, _ = run(capsys, "variance", "--k", "2", "--x", "500", "--Q", "20")
        lines = out.strip().splitlines()
        assert len(lines) == 22  # header + 20 rows + total

    def test_floats_round_trip(self, capsys):
        _, out, _ = run(capsys, "variance", "--k", "2", "--x", "300", "--Q", "5")
        for line in out.strip().splitlines()[1:]:
            value = line.split(",")[1]
            assert float(value) == float(repr(float(value)))

    def test_Q_beyond_x_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "variance", "--k", "2", "--x", "10", "--Q", "11")
        assert code == EXIT_USAGE

    def test_usage_error_creates_no_out_file(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        argv = ("variance", "--k", "2", "--x", "10", "--Q", "11", "--out", str(out))
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, fmt):
        argv = ("variance", "--k", "3", "--x", "5000", "--Q", "700", "--format", fmt)
        code, stdout, _ = run(capsys, *argv)
        assert code == EXIT_OK and stdout.count("\n") >= 702
        out = tmp_path / f"v.{fmt}"
        code, printed, _ = run(capsys, *argv, "--out", str(out))
        assert code == EXIT_OK and printed == ""
        assert out.read_bytes() == stdout.encode()

    def test_rows_are_written_one_block_per_call(self, monkeypatch):
        writes = []
        sink = type("Sink", (), {"write": staticmethod(writes.append)})()
        monkeypatch.setattr(cli_mod, "_output", lambda path: contextlib.nullcontext(sink))
        pieces = [f"{i}\n" for i in range(2 * cli_mod._WRITE_BLOCK + 3)]
        cli_mod._emit(iter(pieces), None)
        assert len(writes) == 3 and "".join(writes) == "".join(pieces)
        cli_mod._emit([], None)
        assert len(writes) == 3

    def test_json_longer_than_one_block_is_json_dumps(self, capsys, monkeypatch):
        # per_q is encoded a block at a time; the bytes are those of json.dumps
        x, Q = 3000, 23
        rep = stats.variance_total(sieve_dk(x, 3), x, Q)
        want = dict(x=x, Q=Q, k=3, per_q=rep.per_q.tolist(), total=rep.total)
        for block in (1, 5, 23, 2**16):
            monkeypatch.setattr(cli_mod, "_WRITE_BLOCK", block)
            argv = ("variance", "--k", "3", "--x", str(x), "--Q", str(Q), "--format", "json")
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK and out == json.dumps(want, indent=2) + "\n", block

    def test_json_keeps_the_bytes_of_non_finite_values(self, capsys, monkeypatch):
        per_q = np.array([math.nan, math.inf, -math.inf, 0.1, -0.0, 1e300, 5e-324])
        rep = stats.VarianceReport(7, 7, 2, per_q, math.inf, 0, 0.0, 0.0, math.nan)
        monkeypatch.setattr(stats, "variance_total", lambda table, x, Q: rep)
        monkeypatch.setattr(cli_mod, "_WRITE_BLOCK", 3)
        code, out, _ = run(capsys, "variance", "--k", "2", "--x", "7", "--Q", "7", "--format", "json")
        want = dict(x=7, Q=7, k=2, per_q=per_q.tolist(), total=math.inf)
        assert code == EXIT_OK and out == json.dumps(want, indent=2) + "\n"

    def test_cached_table_matches_fresh_sieve(self, tmp_path, capsys):
        out = tmp_path / "t.dktb"
        run(capsys, "sieve", "--k", "2", "--x", "2000", "--out", str(out))
        code1, fresh, _ = run(capsys, "variance", "--k", "2", "--x", "2000", "--Q", "10")
        code2, cached, _ = run(
            capsys, "variance", "--k", "2", "--x", "2000", "--Q", "10",
            "--table", str(out),
        )
        assert code1 == code2 == EXIT_OK
        assert fresh == cached

    def test_thread_count_does_not_change_output(self, capsys):
        _, a, _ = run(
            capsys, "variance", "--k", "3", "--x", "3000", "--Q", "40",
            "--threads", "1",
        )
        _, b, _ = run(
            capsys, "variance", "--k", "3", "--x", "3000", "--Q", "40",
            "--threads", "8",
        )
        assert a == b


@pytest.mark.parametrize("k", (2, 3))
def test_cached_table_prints_the_same_bytes(tmp_path, capsys, k):
    # a loaded table is int32; the output must not depend on its width
    path = tmp_path / "t.dktb"
    run(capsys, "sieve", "--k", str(k), "--x", "65536", "--out", str(path))
    commands = (
        ("variance", "--k", str(k), "--x", "65536", "--Q", "4096"),
        ("variance", "--k", str(k), "--x", "60000", "--Q", "100", "--format", "json"),
        ("expsum", "--k", str(k), "--x", "65536", "--q", "4099", "--a", "17"),
        ("expsum", "--k", str(k), "--x", "65000", "--q", "3", "--a", "1", "--format", "json"),
    )
    for argv in commands:
        fresh = run(capsys, *argv)
        cached = run(capsys, *argv, "--table", str(path))
        assert fresh[0] == EXIT_OK and cached == fresh, argv


@pytest.mark.parametrize("case", sorted(ENGINE_SHA256))
def test_engine_stdout_bytes_are_pinned(capsys, case):
    # the variance and growth rows stay bit-identical across engine changes
    _, out, _ = run(capsys, *case.split())
    assert hashlib.sha256(out.encode()).hexdigest() == ENGINE_SHA256[case]


class TestExpsumCommand:
    def test_stdout_bytes_hold_at_every_dispatch_level(self):
        # real cosine and sine tables: no complex ufunc whose rounding
        # follows numpy's SIMD level
        code = (
            "from apvar.cli import main\n"
            "for q, a in ((7, 3), (97, 5), (1000, 7), (9973, 1234)):\n"
            "    main(['expsum', '--k', '2', '--x', '100000', '--q', str(q), '--a', str(a),"
            " '--format', 'json'])\n"
        )
        src = str(Path(cli_mod.__file__).parents[1])  # the apvar under test
        outs = {}
        for features in dispatch_settings():
            env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": features}
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            if proc.returncode and "You cannot disable CPU feature" in proc.stderr:
                continue  # numpy refuses this setting at import on this host
            assert proc.returncode == 0, proc.stderr
            outs[features] = proc.stdout
        assert outs[""].count('"re"') == 4
        assert all(out == outs[""] for out in outs.values()), sorted(outs)

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "expsum", "--k", "2", "--x", "10", "--q", "2", "--a", "1",
            "--format", "json",
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["re"] == pytest.approx(7.0, abs=1e-9)

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "expsum", "--k", "2", "--x", "100", "--q", "1", "--a", "0"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "a,q,x,re,im"
        fields = lines[1].split(",")
        assert float(fields[3]) == pytest.approx(482.0, abs=1e-9)

    @pytest.mark.parametrize("q", ("1000000000000000", "100000000000000000000"))
    def test_unallocatable_modulus_is_resource_error(self, capsys, q):
        # 8 PB of class sums, or beyond numpy's largest array: no traceback
        code, out, err = run(capsys, "expsum", "--k", "2", "--x", "1000", "--q", q, "--a", "1")
        assert code == EXIT_RESOURCE
        assert out == "" and err.startswith("resource limit: ")


@pytest.mark.parametrize("table", (False, True))
@pytest.mark.parametrize(
    "argv",
    (
        ("variance", "--k", "2", "--x", "10000000", "--Q", "0"),
        ("variance", "--k", "2", "--x", "10000000", "--Q", "10000001"),
        ("expsum", "--k", "2", "--x", "10000000", "--q", "0", "--a", "1"),
        ("verify", "--suite", "dirichlet", "--k", "2", "--x", "0"),
        ("expsum", "--k", "2", "--x", "0", "--q", "3", "--a", "1"),
        ("expsum", "--k", "2", "--x", "-1", "--q", "3", "--a", "1"),
    ),
)
def test_bad_modulus_is_refused_before_the_table_is_built(
    tmp_path, capsys, monkeypatch, argv, table
):
    # `--Q 0` and `--q 0` used to sieve 10^7 values (about 80 MB) first, and
    # a cutoff below 1 used to read the whole --table before it was refused
    from apvar import cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a table was built before the modulus was checked")

    monkeypatch.setattr(cli, "sieve_dk", must_not_run)
    monkeypatch.setattr(cli, "read_table", must_not_run)
    if table:
        argv += ("--table", str(tmp_path / "unused.dktb"))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ")


# a CSV value: a digit or a magnitude up to the formatter's bound
_CSV_VALUE = st.one_of(st.integers(-9, 9), st.integers(-(2**32) + 1, 2**32 - 1))


class TestCsvLines:
    @given(
        st.integers(1, 6).flatmap(
            lambda c: st.lists(
                st.lists(_CSV_VALUE, min_size=c, max_size=c), min_size=1, max_size=40
            )
        )
    )
    @example([[0, 0, 0, 0, 0, 0]])
    @example([[-1, 3, 1, 3, 0, 1]])
    @example([[2**32 - 1, -(2**32) + 1, 7, -7, 10, -10]])
    @example([[0, 5, 12], [0, 70, 300], [0, 1, 4]])  # nothing negative: no sign pass
    @example([[1, 2, 3], [40, 50, 60], [7, 8, -9]])  # one '-', in the last cell
    def test_matches_percent_formatting(self, rows):
        from apvar import cli

        columns = [np.array(col, dtype=np.int64) for col in zip(*rows)]
        want = "".join(",".join("%d" % v for v in row) + "\n" for row in rows)
        assert cli._csv_lines(columns) == want.encode("ascii")

    @pytest.mark.parametrize("value", (2**32, -(2**32), 2**63 - 1, -(2**63)))
    def test_magnitude_past_the_bound_is_refused(self, value):
        from apvar import cli

        columns = [np.array([1, value], dtype=np.int64), np.array([2, 3], dtype=np.int64)]
        with pytest.raises(DomainError, match="2\\^32"):
            cli._csv_lines(columns)

    def test_mediant_denominators_fit_the_bound(self):
        from apvar import cli, farey

        assert 2 * farey.MAX_ORDER < cli._CSV_TOP


class TestFareyCommand:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run(capsys, "farey", "--gamma", "2")
        lines = out.strip().splitlines()
        assert code == EXIT_OK
        assert lines[0] == "a,q,left_num,left_den,right_num,right_den"
        assert lines[1] == "0,1,-1,3,1,3"
        assert lines[2] == "1,2,1,3,2,3"

    def test_row_count(self, capsys):
        _, out, _ = run(capsys, "farey", "--gamma", "10")
        from apvar import euler_phi

        rows = len(out.strip().splitlines()) - 1
        assert rows == sum(euler_phi(q) for q in range(1, 11))

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "arcs.csv"
        code, out, _ = run(capsys, "farey", "--gamma", "5", "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert target.read_text().startswith("a,q,left_num")

    @pytest.mark.parametrize("gamma", sorted(FAREY_CSV))
    def test_csv_bytes_are_pinned(self, tmp_path, capsys, gamma):
        target = tmp_path / "arcs.csv"
        code, _, _ = run(capsys, "farey", "--gamma", str(gamma), "--out", str(target))
        blob = target.read_bytes()
        assert code == EXIT_OK
        digest = hashlib.sha256(blob).hexdigest()
        assert (digest, blob.count(b"\n"), len(blob)) == FAREY_CSV[gamma]

    @pytest.mark.parametrize("gamma", (2, 10, 137))
    @pytest.mark.parametrize("small_pieces", (False, True))
    def test_csv_matches_fraction_dissection(
        self, capsys, monkeypatch, gamma, small_pieces
    ):
        from apvar import dissection, farey

        want = "a,q,left_num,left_den,right_num,right_den\n" + "".join(
            f"{arc.center.numerator},{arc.center.denominator},"
            f"{arc.left.numerator},{arc.left.denominator},"
            f"{arc.right.numerator},{arc.right.denominator}\n"
            for arc in dissection(gamma)
        )
        if small_pieces:  # many slices, each written as its own CSV block
            monkeypatch.setattr(farey, "SLICE", 5)
        code, out, _ = run(capsys, "farey", "--gamma", str(gamma))
        assert code == EXIT_OK and out == want

    def test_redirected_stdout_gets_the_same_text(self, capsys):
        _, want, _ = run(capsys, "farey", "--gamma", "10")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = main(["farey", "--gamma", "10"])
        assert code == EXIT_OK
        assert sink.getvalue() == want and capsys.readouterr().out == ""

    def test_order_below_two_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "arcs.csv"
        code, out, err = run(capsys, "farey", "--gamma", "1", "--out", str(target))
        assert code == EXIT_USAGE
        assert out == "" and not target.exists() and "order" in err


class TestVerifyCommand:
    def test_farey_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "farey", "--gamma", "60")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["pass"] for r in rows)
        assert {"check", "lhs", "rhs", "rel_diff", "pass"} <= set(rows[0])

    def test_identities_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "identities", "--x", "2000", "--k", "2"
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["pass"] for r in rows)
        parseval, _, density, _ = rows
        assert 1 <= parseval["q"] <= 50
        assert 1 <= density["q"] <= 60

    def test_dirichlet_suite_passes_for_k1(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dirichlet", "--k", "1")
        assert code == EXIT_OK
        row = json.loads(out.strip().splitlines()[0])
        assert row["pass"] and row["rel_diff"] < 1e-3

    def test_dirichlet_suite_reports_slowest_class_honestly(self, capsys):
        # at k=2 the raw partial sum of the gcd-29 class mod 29 falls short
        # of the full series by just over 1e-3 at cutoff 1e5; with the
        # predicted tail added every class passes, and the raw_* keys still
        # name the slowest class
        code, out, _ = run(capsys, "verify", "--suite", "dirichlet", "--k", "2")
        row = json.loads(out.strip().splitlines()[0])
        assert code == EXIT_OK
        assert row["pass"] and row["failing"] == 0
        assert row["rel_diff"] < 1e-6
        assert row["cases"] == 111  # pairs q <= 30, delta | q
        assert (row["raw_q"], row["raw_delta"]) == (29, 29)
        assert 1e-3 <= row["raw_rel_diff"] < 2e-3
        assert 1 <= row["raw_failing"] < row["cases"]

    def test_dirichlet_suite_catches_one_wrong_class(self, capsys, monkeypatch):
        from apvar import stats

        right = stats.correction_value_at

        def wrong_at_12_4(q, delta, k, s):
            value = right(q, delta, k, s)
            return value * (1 + 1.5e-3) if (q, delta) == (12, 4) else value

        monkeypatch.setattr(stats, "correction_value_at", wrong_at_12_4)
        code, out, _ = run(capsys, "verify", "--suite", "dirichlet", "--k", "2")
        row = json.loads(out.strip().splitlines()[0])
        assert code == EXIT_CHECK_FAILED
        assert not row["pass"] and row["failing"] == 1
        assert (row["q"], row["delta"]) == (12, 4)

    def test_dirichlet_suite_checks_the_cutoff_of_a_larger_table(self, tmp_path, capsys):
        # the cutoff is --x, not the limit of the table given by --table
        path = tmp_path / "d2.dktb"
        run(capsys, "sieve", "--k", "2", "--x", "200000", "--out", str(path))
        argv = ("verify", "--suite", "dirichlet", "--k", "2", "--x", "1000")
        fresh = run(capsys, *argv)
        assert fresh[0] == EXIT_OK and "N=1000" in fresh[1]
        assert run(capsys, *argv, "--table", str(path)) == fresh

    def test_growth_suite_on_reduced_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "growth", "--k", "2", "--x", str(2**16)
        )
        row = json.loads(out.strip().splitlines()[0])
        assert code == EXIT_OK
        assert row["pass"] and 0.85 <= row["lhs"] <= 1.2

    def test_growth_suite_reads_its_table_from_table(self, tmp_path, capsys):
        path = tmp_path / "d2.dktb"
        run(capsys, "sieve", "--k", "2", "--x", str(2**15 + 7), "--out", str(path))
        argv = ("verify", "--suite", "growth", "--k", "2", "--x", str(2**15))
        fresh = run(capsys, *argv)
        assert fresh[0] == EXIT_OK
        assert run(capsys, *argv, "--table", str(path)) == fresh

    @pytest.mark.parametrize("k, x", ((3, 2**15), (2, 1000)))
    def test_growth_suite_refuses_a_table_of_other_k_or_too_short(
        self, tmp_path, capsys, k, x
    ):
        path = tmp_path / "t.dktb"
        run(capsys, "sieve", "--k", str(k), "--x", str(x), "--out", str(path))
        code, out, err = run(
            capsys, "verify", "--suite", "growth", "--k", "2", "--x", str(2**15),
            "--table", str(path),
        )
        assert code == EXIT_USAGE
        assert out == "" and "cached table" in err

    def test_growth_suite_needs_two_grid_points(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--suite", "growth", "--k", "2", "--x", "100"
        )
        assert code == EXIT_USAGE

    def test_all_suites_refuse_a_short_growth_grid_before_running(
        self, capsys, monkeypatch
    ):
        from apvar import checks

        def must_not_run(*args, **kwargs):
            raise AssertionError("a suite ran before the growth grid was checked")

        monkeypatch.setattr(checks, "parseval", must_not_run)
        code, out, err = run(capsys, "verify", "--suite", "all", "--x", "10000")
        assert code == EXIT_USAGE
        assert out == "" and "2^15" in err

    @pytest.mark.parametrize("suite", ("farey", "all"))
    @pytest.mark.parametrize("gamma", ("0", "1", "10001"))
    def test_farey_order_is_checked_before_any_suite_runs(
        self, capsys, monkeypatch, suite, gamma
    ):
        # 0 used to run order 300, 1 passed with an empty "(0 arcs)" row, and
        # 10001 swept orders 2..10000 before it was refused
        from apvar import checks

        def must_not_run(*args, **kwargs):
            raise AssertionError("a suite ran before --gamma was checked")

        for name in ("parseval", "dirichlet", "farey_containment", "growth"):
            monkeypatch.setattr(checks, name, must_not_run)
        code, out, err = run(capsys, "verify", "--suite", suite, "--gamma", gamma)
        assert code == EXIT_USAGE
        assert out == "" and "gamma" in err

    @pytest.mark.parametrize("suite", ("farey", "all"))
    def test_farey_sweep_beyond_budget_is_resource_error(self, capsys, monkeypatch, suite):
        # orders 2..10^4 walk the 30,397,487 fractions of F_10000: one
        # fraction past the budget is refused before any suite runs
        from apvar import checks

        def must_not_run(*args, **kwargs):
            raise AssertionError("a suite ran before the Farey sweep was budgeted")

        for name in ("parseval", "dirichlet", "farey_containment", "growth"):
            monkeypatch.setattr(checks, name, must_not_run)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--gamma", "10000", "--budget", "30397486"
        )
        assert code == EXIT_RESOURCE
        assert out == "" and "30397487 fractions" in err
        assert time.perf_counter() - start < 5.0

    def test_farey_order_ten_thousand_fits_the_default_budget(self, monkeypatch):
        # budgeted by its 3.04e7 fractions, not the 1.01e11 arcs of every
        # order, and without running any Farey work
        from apvar import checks, farey, stats

        def must_not_run(*args, **kwargs):
            raise AssertionError("budgeting the Farey sweep ran it")

        for name in ("_sorted_slices", "failing_orders"):
            monkeypatch.setattr(farey, name, must_not_run)
        assert checks.farey_order(10**4, budget=stats.DEFAULT_WORK_BUDGET) == 10**4

    def test_farey_suite_at_order_two_thousand(self, capsys):
        # one pass over F_2000 (1.2e6 fractions); the per-order sweep it
        # replaced walked 8.1e8 arcs in about 46 s
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--suite", "farey", "--gamma", "2000")
        assert code == EXIT_OK
        assert out == FAREY_SUITE_2000
        assert time.perf_counter() - start < 15.0

    @pytest.mark.parametrize("suite", ("identities", "all"))
    @pytest.mark.parametrize("Q", ("0", "200000"))
    def test_identities_modulus_bound_is_checked_before_any_suite_runs(
        self, capsys, monkeypatch, suite, Q
    ):
        # Q above x used to run the Parseval check, then exit 3 from the
        # expansion check's work budget
        from apvar import checks, cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("a suite ran before --Q was checked")

        for name in ("parseval", "dirichlet", "farey_containment", "growth"):
            monkeypatch.setattr(checks, name, must_not_run)
        monkeypatch.setattr(cli, "sieve_dk", must_not_run)
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--k", "3", "--x", "100000", "--Q", Q
        )
        assert code == EXIT_USAGE
        assert out == "" and f"Q={Q}" in err

    @pytest.mark.parametrize("suite", ("identities", "all"))
    @pytest.mark.parametrize("cached", (False, True))
    def test_expansion_beyond_budget_reads_or_sieves_nothing(
        self, tmp_path, capsys, monkeypatch, suite, cached
    ):
        # x*Q = 10^7 > 5e6 used to sieve d_3 to 1e5 and run all 50 Parseval
        # checks before the expansion check exited 3
        from apvar import checks, cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("work ran before the expansion was budgeted")

        for name in ("parseval", "dirichlet", "farey_containment", "growth"):
            monkeypatch.setattr(checks, name, must_not_run)
        monkeypatch.setattr(cli, "sieve_dk", must_not_run)
        monkeypatch.setattr(cli, "read_table", must_not_run)
        table = ("--table", str(tmp_path / "unused.dktb")) if cached else ()
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--k", "3", "--x", "100000",
            "--budget", "5000000", *table,
        )
        assert code == EXIT_RESOURCE
        assert out == "" and "10000000 element operations, budget 5000000" in err

    @pytest.mark.parametrize("suite", SUITES)
    def test_negative_budget_is_usage_error(self, capsys, monkeypatch, suite):
        from apvar import checks, cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("work ran before --budget was checked")

        for name in ("parseval", "dirichlet", "farey_containment", "growth"):
            monkeypatch.setattr(checks, name, must_not_run)
        monkeypatch.setattr(cli, "sieve_dk", must_not_run)
        code, out, err = run(capsys, "verify", "--suite", suite, "--budget", "-1")
        assert code == EXIT_USAGE
        assert out == "" and "budget" in err

    @pytest.fixture
    def table_calls(self, monkeypatch):
        """(name, first argument) of every cli.sieve_dk and cli.read_table call."""
        from apvar import cli

        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, args[0]))
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "sieve_dk", counted(cli.sieve_dk))
        monkeypatch.setattr(cli, "read_table", counted(cli.read_table))
        return calls

    def test_all_suites_share_one_table_and_print_each_suite_in_order(
        self, capsys, table_calls
    ):
        # the identities, dirichlet and growth suites each used to sieve their own
        argv = ("--k", "2", "--x", "32768", "--gamma", "50")
        code, out, _ = run(capsys, "verify", "--suite", "all", *argv)
        assert code == EXIT_OK
        assert table_calls == [("sieve_dk", 32768)]
        alone = [run(capsys, "verify", "--suite", s, *argv) for s in SUITES[:-1]]
        assert [r[0] for r in alone] == [EXIT_OK] * 4
        assert out == "".join(r[1] for r in alone)

    def test_default_cutoffs_sieve_once_at_the_largest(self, capsys, table_calls):
        # 10^4, 10^5 and 2^18 used to be three sieves
        code, _, _ = run(capsys, "verify", "--suite", "all", "--k", "2", "--gamma", "50")
        assert code == EXIT_OK
        assert table_calls == [("sieve_dk", 2**18)]

    def test_all_suites_read_table_once(self, tmp_path, capsys, table_calls):
        path = tmp_path / "d2.dktb"
        write_table(sieve_dk(40000, 2), path)
        code, _, _ = run(
            capsys, "verify", "--suite", "all", "--k", "2", "--x", "32768", "--gamma", "50",
            "--table", str(path),
        )
        assert code == EXIT_OK
        assert table_calls == [("read_table", str(path))]

    def test_farey_suite_neither_sieves_nor_reads_a_table(self, tmp_path, capsys, monkeypatch):
        from apvar import cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("the farey suite built a table")

        monkeypatch.setattr(cli, "sieve_dk", must_not_run)
        monkeypatch.setattr(cli, "read_table", must_not_run)
        code, _, _ = run(
            capsys, "verify", "--suite", "farey", "--gamma", "50",
            "--table", str(tmp_path / "unused.dktb"),
        )
        assert code == EXIT_OK

    def test_default_farey_sweep_fits_the_budget(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "farey")
        assert code == EXIT_OK
        assert "(2763278 arcs)" in json.loads(out.splitlines()[0])["check"]
        code, out, err = run(capsys, "verify", "--suite", "farey", "--budget", "27398")
        assert code == EXIT_RESOURCE
        assert out == "" and "27399 fractions" in err

    @pytest.mark.parametrize(
        "argv",
        (
            ("identities", "--x", "0"),
            ("identities", "--Q", "0"),
            ("dirichlet", "--x", "0"),
            ("growth", "--x", "0"),
        ),
    )
    def test_zero_cutoff_or_modulus_bound_is_usage_error(self, capsys, argv):
        # `--x 0` and `--Q 0` used to fall back to the defaults and pass
        code, out, err = run(capsys, "verify", "--suite", *argv)
        assert code == EXIT_USAGE
        assert out == "" and "error" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == EXIT_USAGE

    def test_budget_exhaustion_is_resource_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--suite", "identities", "--x", "2000", "--k", "2",
            "--budget", "1",
        )
        assert code == EXIT_RESOURCE
        assert "resource" in err

    def test_expansion_that_cancels_past_the_gate_fails_the_check(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "identities", "--x", "100000", "--k", "1"
        )
        assert code == EXIT_CHECK_FAILED
        assert out == "" and "check failed" in err and "cancel" in err

    def test_thread_count_does_not_change_report(self, capsys):
        args = ("verify", "--suite", "identities", "--x", "1500", "--k", "2")
        _, a, _ = run(capsys, *args, "--threads", "1")
        _, b, _ = run(capsys, *args, "--threads", "8")
        assert a == b


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_table_value_beyond_int64_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "wrap.dktb"
        path.write_bytes(
            struct.pack("<4sIQI", b"DKTB", 1, 2, 2) + struct.pack("<2Q", 1, 2**63)
        )
        code, _, err = run(
            capsys, "variance", "--k", "2", "--x", "2", "--Q", "1",
            "--table", str(path),
        )
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {path}: value {2**63} at n=2 exceeds 2 ")

    def test_table_total_beyond_int64_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sum_wraps.dktb"
        path.write_bytes(
            struct.pack("<4sIQI", b"DKTB", 1, 2, 2) + struct.pack("<2Q", 2**62, 2**62)
        )
        code, out, err = run(
            capsys, "expsum", "--k", "2", "--x", "2", "--q", "1", "--a", "1",
            "--table", str(path),
        )
        assert code == EXIT_USAGE
        assert out == "" and err.startswith(f"error: {path}: value {2**62} at n=1 exceeds 2 ")

    def test_table_relabelled_with_a_smaller_k_is_usage_error(self, tmp_path, capsys):
        # a d_3 table to 10^5 whose header says k = 2: d_3(240) = 135 is the
        # first value above 128, the largest d_2(n) for n <= 10^5
        path = tmp_path / "relabelled.dktb"
        write_table(sieve_dk(10**5, 3), path)
        blob = bytearray(path.read_bytes())
        blob[16:20] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(DomainError, match="value 135 at n=240 exceeds 128 "):
            read_table(path)
        code, out, err = run(
            capsys, "variance", "--k", "2", "--x", "100000", "--Q", "10",
            "--table", str(path),
        )
        assert code == EXIT_USAGE
        assert out == "" and err.startswith(f"error: {path}: value 135 at n=240 ")

    @pytest.mark.parametrize(
        "argv",
        (
            ("verify", "--suite", "identities", "--k", "3", "--x", "100000"),
            ("variance", "--k", "3", "--x", "100000", "--Q", "100"),
        ),
        ids=("verify", "variance"),
    )
    def test_table_relabelled_with_a_larger_k_is_usage_error(self, tmp_path, capsys, argv):
        # a d_2 table to 10^5 whose header says k = 3: every value lies within
        # the d_3 bound, but d_2(2) = 2 is not d_3(2) = 3
        path = tmp_path / "relabelled.dktb"
        write_table(sieve_dk(10**5, 2), path)
        blob = bytearray(path.read_bytes())
        blob[16:20] = struct.pack("<I", 3)
        path.write_bytes(bytes(blob))
        code, out, err = run(capsys, *argv, "--table", str(path))
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: {path}: value 2 at n=2 is not d_3(2) = 3\n"

    def test_header_beyond_file_size_is_usage_error(self, tmp_path, capsys):
        # the header claims 2^60 values; the size check runs before any
        # allocation, so this is a usage error, not a MemoryError
        path = tmp_path / "huge.dktb"
        path.write_bytes(
            struct.pack("<4sIQI", b"DKTB", 1, 2**60, 2) + struct.pack("<Q", 1)
        )
        code, out, err = run(
            capsys, "expsum", "--k", "2", "--x", "2", "--q", "1", "--a", "1",
            "--table", str(path),
        )
        assert code == EXIT_USAGE
        assert out == "" and "payload bytes" in err

    def test_fold_out_of_range_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "sieve", "--k", "9", "--x", "10", "--out", str(tmp_path / "t")
        )
        assert code == EXIT_USAGE

    def test_io_failure_reports_nonzero(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "sieve", "--k", "2", "--x", "10",
            "--out", str(tmp_path / "missing" / "t.dktb"),
        )
        assert code == EXIT_CHECK_FAILED
        assert "i/o" in err


class TestThreadResolution:
    @pytest.mark.parametrize("flag", ("0", "-3"), ids=("flag-0", "flag-minus-3"))
    def test_thread_count_below_one_is_usage_error(self, capsys, flag):
        argv = ("variance", "--k", "2", "--x", "50", "--Q", "2", "--threads", flag)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and "thread count" in err

    @pytest.mark.parametrize("exists", (True, False), ids=("table", "missing-table"))
    def test_thread_count_is_checked_before_the_table_is_read(self, tmp_path, capsys, exists):
        path = tmp_path / "t.dktb"
        if exists:
            write_table(sieve_dk(50, 2), path)
        for argv in (
            ("variance", "--k", "2", "--x", "50", "--Q", "2"),
            ("expsum", "--k", "2", "--x", "50", "--q", "3", "--a", "1"),
            ("verify", "--suite", "dirichlet", "--x", "50"),
        ):
            code, out, err = run(capsys, *argv, "--table", str(path), "--threads", "0")
            assert code == EXIT_USAGE, argv
            assert out == "" and "thread count" in err

    def test_defaults_to_cpu_count(self, tmp_path):
        # without --threads the sieve takes its default, one task per core:
        # with three cores and three segments, two threads start beside the
        # caller's, counted in a fresh interpreter
        code = (
            "import threading\nimport apvar.sieve\nfrom apvar.cli import main\n"
            "apvar.sieve.WORKERS = 3\n"
            "started, start = [], threading.Thread.start\n"
            "threading.Thread.start = lambda t: (started.append(t), start(t))[1]\n"
            "x = str(3 * apvar.sieve.SEGMENT_SIZE)\n"
            f"assert main(['sieve', '--k', '2', '--x', x, '--out', {str(tmp_path / 't')!r}]) == 0\n"
            "print(len(started))"
        )
        src = str(Path(cli_mod.__file__).parents[1])  # the apvar under test
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.splitlines()[-1] == "2"
