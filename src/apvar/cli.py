"""Command-line front end.

Subcommands: sieve, main-term, variance, expsum, farey, verify.  Exit codes: 0
success (all checks pass), 1 check failure, 2 usage error, 3 resource limit;
an I/O error (a missing or unreadable --table, a directory, an --out in a
missing directory) also exits 1, with "i/o error" on stderr.
Output is CSV or JSON with floats printed to 17 significant digits (round-trip
safe).  --threads, checked before any table is read or sieved (below 1 is a
usage error), caps the sieve's tasks, one per thread and at most one per
core, the caller's thread among them; without it the sieve uses every core.
Class sums of a large table use every core whatever it is, with identical
output.  verify checks its arguments, then reads or sieves one d_k table at
the largest cutoff of its selected suites; each suite reads its own cutoff
of that table.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

import numpy as np

from . import checks, stats
from . import farey as farey_mod
from .errors import CertificateError, DomainError, ResourceError
from .residues import ap_main_term, eval_logpoly, m_poly
from .sieve import ap_sums, exp_sum, read_table, sieve_dk, total_sum, write_table

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

SUITES = ("identities", "dirichlet", "farey", "growth", "all")

_CSV_TOP = 2**32  # |value| bound of _csv_lines, whose digit pass runs in uint32
_WRITE_BLOCK = 2**16  # strings per _emit write, or variance JSON values: 1-2 MB of output


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _output(out_path):
    return open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)


def _emit(pieces, out_path) -> None:
    """Write the strings of `pieces` to out_path (stdout without one), joined
    _WRITE_BLOCK at a time: one write per block, even to an unbuffered stdout."""
    pieces = iter(pieces)
    with _output(out_path) as fh:
        while block := "".join(itertools.islice(pieces, _WRITE_BLOCK)):
            fh.write(block)


def _csv_lines(columns) -> bytes:
    """The rows of equal-length integer columns as "%d,...,%d\n" lines, in
    ASCII, formatted in numpy.

    Each value gets a cell of width + 1 bytes: a sign slot, its digits right
    aligned (last first, each v - (v // 10) * 10: numpy's % by a scalar is
    slow), and a ',' (a '\n' after the last column).  One boolean mask
    keeps the significant digits, the '-' just before them (if any value is
    negative) and the separator, and gathers the kept bytes in row order.
    """
    m = np.stack(columns, axis=1)
    low = int(m.min(initial=0))
    top = max(int(m.max(initial=0)), -low)
    if top >= _CSV_TOP:
        raise DomainError(f"CSV value of magnitude {top} reaches the 2^32 bound")
    v = np.abs(m).astype(np.uint32)
    width = len(str(top)) + 1
    cells = np.empty(m.shape + (width + 1,), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    for j in range(width - 1, 0, -1):
        rest = v // 10
        v -= rest * 10
        cells[..., j] = v + ord("0")
        v = rest
        keep[..., j - 1] = v > 0  # a digit left for slot j - 1
    cells[:, :-1, width] = ord(",")
    cells[:, -1, width] = ord("\n")
    if low < 0:
        rows, cols = np.nonzero(m < 0)
        sign = width - 1 - keep[rows, cols, :width].sum(axis=1)
        cells[rows, cols, sign] = ord("-")
        keep[rows, cols, sign] = True
    return cells.ravel()[keep.ravel()].tobytes()


def _load_or_sieve(args, x: int, k: int):
    if x < 1:
        raise DomainError(f"cutoff must be at least 1, got {x}")
    if getattr(args, "table", None):
        table = read_table(args.table)
        if table.k != k or table.x < x:
            raise DomainError(
                f"cached table holds k={table.k}, x={table.x}; need k={k}, x>={x}"
            )
        return table
    return sieve_dk(x, k, threads=args.threads)


def cmd_sieve(args) -> int:
    table = sieve_dk(args.x, args.k, threads=args.threads)
    write_table(table, args.out)
    print(f"wrote {args.out}: x={table.x} k={table.k} total={total_sum(table)}")
    return EXIT_OK


def cmd_main_term(args) -> int:
    f = ap_main_term(args.q, args.a, args.k)
    m = m_poly(args.q, args.k)
    payload = {
        "f": {"k": args.k, "q": args.q, "a": args.a, "coeffs": f.tolist()},
        "M": {"k": args.k, "q": args.q, "coeffs": m.tolist()},
    }
    if args.x is not None:
        payload["f"]["value_at_x"] = eval_logpoly(f, args.x)
        payload["M"]["value_at_x"] = eval_logpoly(m, args.x)
        payload["x"] = args.x
    _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    return EXIT_OK


def cmd_variance(args) -> int:
    if not 1 <= args.Q <= args.x:
        raise DomainError(f"need 1 <= Q <= x, got Q={args.Q}, x={args.x}")
    table = _load_or_sieve(args, args.x, args.k)
    rep = stats.variance_total(table, args.x, args.Q)
    if args.format == "json":
        # json.dumps(payload, indent=2), per_q written _WRITE_BLOCK values at a time
        payload = dict(x=rep.x, Q=rep.Q, k=rep.k, per_q=[None], total=rep.total)
        head, tail = json.dumps(payload, indent=2).split("null")
        with _output(args.out) as fh:
            for i in range(0, rep.Q, _WRITE_BLOCK):
                block = json.dumps(rep.per_q[i : i + _WRITE_BLOCK].tolist())[1:-1]
                fh.write((",\n    " if i else head) + block.replace(", ", ",\n    "))
            fh.write(tail + "\n")
    else:
        rows = (f"{q},{_fmt(v)}\n" for q, v in enumerate(rep.per_q, start=1))
        _emit(itertools.chain(["q,V_q\n"], rows, [f"total,{_fmt(rep.total)}\n"]), args.out)
    return EXIT_OK


def cmd_expsum(args) -> int:
    if args.q < 1:
        raise DomainError(f"modulus must be >= 1, got {args.q}")
    table = _load_or_sieve(args, args.x, args.k)
    cls = ap_sums(table, args.q, args.x)
    s = exp_sum(cls, args.a)
    if args.format == "json":
        payload = {"a": s.a, "q": s.q, "x": s.X, "re": s.re, "im": s.im}
        _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    else:
        _emit([f"a,q,x,re,im\n{s.a},{s.q},{s.X},{_fmt(s.re)},{_fmt(s.im)}\n"], args.out)
    return EXIT_OK


def cmd_farey(args) -> int:
    slices = farey_mod.arc_slices(args.gamma)
    with _output(args.out) as fh:
        fh.write("a,q,left_num,left_den,right_num,right_den\n")
        for arrays in slices:  # one block per slice, of about farey.SLICE rows
            fh.write(_csv_lines(arrays).decode("ascii"))
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    # Arguments first, then the one table at the largest cutoff, before any suite runs.
    if args.budget < 0:
        raise DomainError(f"work budget must be >= 0, got {args.budget}")
    x_id, x_dir = (10**4, 10**5) if args.x is None else (args.x, args.x)
    cutoffs = []
    if "identities" in suites:
        Q = min(100, x_id) if args.Q is None else args.Q
        if not 1 <= Q <= x_id:
            raise DomainError(f"need 1 <= Q <= x, got Q={Q}, x={x_id}")
        stats.expansion_budget(x_id, Q, args.budget)
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
        table = _load_or_sieve(args, max(cutoffs), args.k)
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
    _emit((json.dumps(r) + "\n" for r in rows), args.out)
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
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise DomainError(f"thread count must be at least 1, got {args.threads}")
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
