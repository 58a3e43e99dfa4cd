"""Command-line front end.

Subcommands: sieve, main-term, variance, expsum, farey, verify.  Exit
codes: 0 success (all checks pass), 1 check failure, 2 usage error,
3 resource limit.  Output is CSV or JSON with floats printed to 17
significant digits (round-trip safe).  --threads sets the sieve's
concurrency; without it the APVAR_THREADS environment variable, then the
host CPU count.  A thread count below 1 is a usage error.  verify checks
its arguments, then reads or sieves one d_k table at the largest cutoff of
its selected suites; each suite reads its own cutoff of that table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import checks, stats
from . import farey as farey_mod
from .errors import CertificateError, DomainError, ResourceError
from .residues import ap_main_term, eval_logpoly, logpoly_json, m_poly
from .sieve import WORKERS, ap_sums, exp_sum, read_table, sieve_dk, total_sum, write_table

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

SUITES = ("identities", "dirichlet", "farey", "growth", "all")

CSV_CHUNK = 1 << 16  # arcs formatted per write


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _resolve_threads(value) -> int:
    if value is None:
        env = os.environ.get("APVAR_THREADS")
        if not env:
            return WORKERS
        try:
            value = int(env)
        except ValueError as exc:
            raise DomainError(f"APVAR_THREADS={env!r} is not an integer") from exc
    if value < 1:
        raise DomainError(f"thread count must be at least 1, got {value}")
    return value


def _output(out_path):
    return open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)


def _emit(text: str, out_path) -> None:
    with _output(out_path) as fh:
        fh.write(text)


def _load_or_sieve(args, x: int, k: int, threads: int):
    if getattr(args, "table", None):
        table = read_table(args.table)
        if table.k != k or table.x < x:
            raise DomainError(
                f"cached table holds k={table.k}, x={table.x}; need k={k}, x>={x}"
            )
        return table
    return sieve_dk(x, k, threads=threads)


def cmd_sieve(args) -> int:
    threads = _resolve_threads(args.threads)
    table = sieve_dk(args.x, args.k, threads=threads)
    write_table(table, args.out)
    print(f"wrote {args.out}: x={table.x} k={table.k} total={total_sum(table)}")
    return EXIT_OK


def cmd_main_term(args) -> int:
    if args.a > args.q:
        raise DomainError(f"residue a={args.a} exceeds modulus q={args.q}")
    f = ap_main_term(args.q, args.a, args.k)
    m = m_poly(args.q, args.k)
    payload = {
        "f": logpoly_json(f, k=args.k, q=args.q, a=args.a),
        "M": logpoly_json(m, k=args.k, q=args.q),
    }
    if args.x is not None:
        payload["f"]["value_at_x"] = eval_logpoly(f, args.x)
        payload["M"]["value_at_x"] = eval_logpoly(m, args.x)
        payload["x"] = args.x
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_variance(args) -> int:
    if not 1 <= args.Q <= args.x:
        raise DomainError(f"need 1 <= Q <= x, got Q={args.Q}, x={args.x}")
    threads = _resolve_threads(args.threads)
    table = _load_or_sieve(args, args.x, args.k, threads)
    report = stats.variance_total(table, args.x, args.Q)
    if args.format == "json":
        payload = {
            "x": report.x,
            "Q": report.Q,
            "k": report.k,
            "per_q": list(report.per_q),
            "total": report.total,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = ["q,V_q"]
        lines += [f"{q},{_fmt(v)}" for q, v in enumerate(report.per_q, start=1)]
        lines.append(f"total,{_fmt(report.total)}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_expsum(args) -> int:
    if args.q < 1:
        raise DomainError(f"modulus must be >= 1, got {args.q}")
    threads = _resolve_threads(args.threads)
    table = _load_or_sieve(args, args.x, args.k, threads)
    cls = ap_sums(table, args.q, args.x)
    s = exp_sum(cls, args.a)
    if args.format == "json":
        payload = {"a": s.a, "q": s.q, "x": s.X, "re": s.re, "im": s.im}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(f"a,q,x,re,im\n{s.a},{s.q},{s.X},{_fmt(s.re)},{_fmt(s.im)}\n", args.out)
    return EXIT_OK


def cmd_farey(args) -> int:
    slices = farey_mod.arc_slices(args.gamma)
    with _output(args.out) as fh:
        fh.write("a,q,left_num,left_den,right_num,right_den\n")
        for arrays in slices:
            for i in range(0, arrays[0].size, CSV_CHUNK):
                rows = zip(*(x[i : i + CSV_CHUNK].tolist() for x in arrays))
                fh.write("".join("%d,%d,%d,%d,%d,%d\n" % row for row in rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    threads = _resolve_threads(args.threads)
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    # Arguments first, then the one table at the largest cutoff, before any suite runs.
    x_id, x_dir = (10**4, 10**5) if args.x is None else (args.x, args.x)
    cutoffs = []
    if "identities" in suites:
        Q = min(100, x_id) if args.Q is None else args.Q
        if not 1 <= Q <= x_id:
            raise DomainError(f"need 1 <= Q <= x, got Q={Q}, x={x_id}")
        cutoffs.append(x_id)
    if "dirichlet" in suites:
        cutoffs.append(x_dir)
    if "growth" in suites:
        grid = checks.growth_grid(2**18 if args.x is None else args.x)
        cutoffs.append(grid[-1])
    if "farey" in suites:
        gamma = checks.farey_order(
            300 if args.gamma is None else args.gamma, budget=args.budget
        )
    if cutoffs:
        table = _load_or_sieve(args, max(cutoffs), args.k, threads)
    rows = []
    if "identities" in suites:
        rows += [
            checks.parseval(table, x_id),
            checks.variance_expansion(table, x_id, Q, budget=args.budget),
            checks.density_square_sum(x_id, args.k),
            checks.ramanujan_orthogonality(),
        ]
    if "dirichlet" in suites:
        rows.append(checks.dirichlet(table, x_dir))
    if "farey" in suites:
        rows += [checks.farey_containment(gamma), checks.farey_histogram()]
    if "growth" in suites:
        rows.append(checks.growth(table, grid))
    text = "\n".join(json.dumps(r) for r in rows) + "\n"
    _emit(text, args.out)
    return EXIT_OK if all(r["pass"] for r in rows) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apvar",
        description="Divisor-function statistics in arithmetic progressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="sieve d_k up to x and write a binary table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("main-term", help="density and reduced main-term polynomials")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--x", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_main_term)

    p = sub.add_parser("variance", help="per-modulus variances and their total")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--table", help="path to a cached sieve table")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("expsum", help="exponential sum S_x(a/q)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--table")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("farey", help="mediant dissection as CSV")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_farey)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--x", type=int)
    p.add_argument("--Q", type=int)
    p.add_argument("--gamma", type=int)
    p.add_argument("--table")
    p.add_argument("--budget", type=int, default=stats.DEFAULT_WORK_BUDGET)
    p.add_argument("--out")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CertificateError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
