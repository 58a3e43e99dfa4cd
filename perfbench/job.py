"""One benchmark job: a fresh process that runs one workload once.

run.py starts this file once per job, so apvar's residue caches start cold
exactly as they do for every ``apvar`` command a user runs.  The job imports
apvar from the checkout's ``src``, makes its inputs from the seed, runs the
workload (inside a Tracer when asked), checks the outputs and writes a JSON
result file.  Timing, CPU and peak memory are measured by the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

X_TABLE = 10**7  # table_cache: d_3 up to 1e7, an 80 MB table
FAREY_GAMMA = 1000
FAREY_ARCS = 304192  # sum of phi(q) over q <= 1000


def _cli(av, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = av.cli.main(argv)
    return code, out.getvalue()


def _rows_pass(label, code, text) -> list[tuple[str, bool]]:
    """Exit code 0 and every JSON row of a verify report passing."""
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    checks = [(f"{label}: exit code {code}", code == 0), (f"{label}: has rows", bool(rows))]
    checks += [(f"{label}: {row['check']}", row["pass"] is True) for row in rows]
    return checks


# ---------------------------------------------------------------- table_cache


def table_cache_inputs(rng):
    """200 class-sum queries (q <= 1e5, a <= q), the first with a small q that
    is checked against a direct exponential sum, and 1000 spot-check n."""
    small_q = int(rng.integers(2, 61))
    queries = [(small_q, int(rng.integers(1, small_q)))]
    for q in rng.integers(1, 10**5 + 1, size=199):
        queries.append((int(q), int(rng.integers(1, q + 1))))
    spots = rng.integers(1, X_TABLE + 1, size=1000)
    return {"queries": queries, "spots": [int(n) for n in spots]}


def table_cache_run(av, inputs, tmp, threads):
    table = av.sieve_dk(X_TABLE, 3, threads=threads)
    path = tmp / "d3.dktb"
    av.write_table(table, path)
    loaded = av.read_table(path)
    answers = []
    for q, a in inputs["queries"]:
        cls = av.ap_sums(loaded, q, X_TABLE)
        answers.append((int(cls.sums[1:].sum()), av.exp_sum(cls, a).value))
    return {
        "table": table,
        "loaded": loaded,
        "total": av.total_sum(loaded),
        "squares": av.square_sum(loaded),
        "answers": answers,
    }


def triples_upto(x: int) -> int:
    """#{(a, b, c) : abc <= x} = sum_{n<=x} d_3(n), by the hyperbola method:
    sum over blocks of a sharing v = x // a of D(v), D(v) = sum_{b<=v} v // b."""
    total = 0
    a = 1
    while a <= x:
        v = x // a
        a_hi = x // v
        s = math.isqrt(v)
        d2 = 2 * int((v // np.arange(1, s + 1, dtype=np.int64)).sum()) - s * s
        total += (a_hi - a + 1) * d2
        a = a_hi + 1
    return total


def direct_exp_sum(values, q: int, a: int) -> complex:
    """sum_n d(n) e(na/q) term by term, in chunks to bound memory."""
    phase = np.exp(2j * np.pi * np.arange(q) / q)
    acc = 0j
    step = 1 << 20
    for lo in range(1, len(values), step):
        n = np.arange(lo, min(lo + step, len(values)), dtype=np.int64)
        acc += complex(np.dot(values[n].astype(np.float64), phase[(n * a) % q]))
    return acc


def table_cache_check(av, inputs, out) -> list[tuple[str, bool]]:
    table, loaded, total = out["table"], out["loaded"], out["total"]
    checks = [
        ("reloaded table equals sieved", loaded.x == table.x and loaded.k == table.k
         and bool(np.array_equal(loaded.values, table.values))),
        ("total_sum matches hyperbola count", total == triples_upto(X_TABLE)),
        ("square_sum matches int64 dot", out["squares"] == int(np.dot(table.values, table.values))),
    ]
    checks += [
        (f"d_3({n}) matches d_k_of", int(loaded.values[n]) == av.arith.d_k_of(n, 3))
        for n in inputs["spots"]
    ]
    checks += [
        (f"class sums mod {q} add up to total_sum", s == total)
        for (q, _), (s, _) in zip(inputs["queries"], out["answers"])
    ]
    q, a = inputs["queries"][0]
    want = direct_exp_sum(table.values, q, a)
    checks.append((f"exp_sum({a}/{q}) matches direct sum", abs(out["answers"][0][1] - want) <= 1e-9 * total))
    return checks


# ------------------------------------------------------------ variance_growth


def variance_growth_inputs(rng):
    return {}


def variance_growth_run(av, inputs, tmp, threads):
    argv = ["verify", "--suite", "growth", "--k", "2", "--x", "65536", "--threads", str(threads)]
    return _cli(av, argv)


def variance_growth_check(av, inputs, out):
    return _rows_pass("verify growth", *out)


# --------------------------------------------------------------------- checks


def checks_inputs(rng):
    """100 Farey arcs to spot-check exactly."""
    return {"arcs": [int(i) for i in rng.integers(0, FAREY_ARCS, size=100)]}


def checks_run(av, inputs, tmp, threads):
    csv = tmp / "farey.csv"
    return {
        "identities": _cli(av, ["verify", "--suite", "identities", "--k", "3", "--x", "100000"]),
        "farey": _cli(av, ["verify", "--suite", "farey"]),
        "dissection": _cli(av, ["farey", "--gamma", str(FAREY_GAMMA), "--out", str(csv)]),
        "csv": csv,
    }


def checks_check(av, inputs, out):
    checks = _rows_pass("verify identities", *out["identities"])
    checks += _rows_pass("verify farey", *out["farey"])
    code, _ = out["dissection"]
    checks.append((f"farey --gamma {FAREY_GAMMA}: exit code {code}", code == 0))
    arcs = np.loadtxt(out["csv"], delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    checks.append((f"farey arcs: {len(arcs)} == {FAREY_ARCS}", len(arcs) == FAREY_ARCS))
    if len(arcs) == 0:
        return checks
    a, q, ln, ld, rn, rd = arcs.T
    chained = np.array_equal(rn[:-1], ln[1:]) and np.array_equal(rd[:-1], ld[1:])
    checks.append(("farey arcs chain: right end == next left end", chained))
    checks.append(("farey wrap arc: first left == last right - 1", (ln[0], ld[0]) == (rn[-1] - rd[-1], rd[-1])))
    for i in inputs["arcs"]:
        if i >= len(arcs):
            checks.append((f"farey arc {i} exists", False))
            continue
        c = (int(a[i]), int(q[i]))
        left, right = (int(ln[i]), int(ld[i])), (int(rn[i]), int(rd[i]))
        ok = (
            1 <= c[1] <= FAREY_GAMMA
            and math.gcd(*c) == 1
            and left[0] * c[1] < c[0] * left[1]
            and c[0] * right[1] < right[0] * c[1]
        )
        checks.append((f"farey arc {i} contains {c[0]}/{c[1]}", ok))
    return checks


WORKLOADS = {
    "table_cache": (table_cache_inputs, table_cache_run, table_cache_check),
    "variance_growth": (variance_growth_inputs, variance_growth_run, variance_growth_check),
    "checks": (checks_inputs, checks_run, checks_check),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--job-id", required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--tmp", type=Path, required=True, help="scratch directory for files the job writes")
    p.add_argument("--out", type=Path, required=True, help="where to write the JSON result")
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent spawned us")
    p.add_argument("--spans", type=Path, help="trace the work and write its spans here as JSON lines")
    p.add_argument("--setup-only", action="store_true", help="stop after imports and inputs")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import apvar
    import apvar.cli

    if not Path(apvar.__file__).resolve().is_relative_to(ROOT):
        raise SystemExit(f"imported apvar from {apvar.__file__}, not from this checkout")
    make_inputs, run, check = WORKLOADS[args.workload]
    inputs = make_inputs(np.random.default_rng(args.seed))
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        if args.spans:
            from spans import Tracer

            tracer = Tracer(apvar, args.job_id)
            with tracer:
                out = run(apvar, inputs, args.tmp, args.threads)
            result["layers"] = tracer.metrics()
            tracer.write_jsonl(args.spans)
        else:
            out = run(apvar, inputs, args.tmp, args.threads)
        checks = check(apvar, inputs, out)
        result["attempted"] = len(checks)
        result["failures"] = [name for name, ok in checks if not ok]
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
