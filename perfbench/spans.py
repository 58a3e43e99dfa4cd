"""In-memory spans around apvar's public functions, and their accounting.

A Tracer replaces each traced function in every apvar module namespace that
holds it (``apvar.stats.ap_sums``, ``apvar.cli.ap_sums``, ...), so calls made
from inside the library, such as ``variance_total`` -> ``ap_sums`` or the
``m_poly`` -> ``m_poly`` recursion, are caught as well as the caller's own.
Each call becomes a span record (id, name, start, end, parent id).  Parents
come from a per-thread stack; a call on a pool thread with an empty stack is
parented to the innermost open span of the main thread, which is the call
that started the pool.  Very hot, very short functions are only counted.

``layer_totals`` turns span records into per-function calls, busy time
(outermost spans of that name, so a recursion counts once) and self time
(span time minus the part of it covered by child spans).
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

MODULES = ("arith", "sieve", "residues", "stats", "farey", "cli")

# Functions that get a span, by "<module>.<function>", each with the quantity
# its calls add up (name and how to read it from the call), if any.
SPANNED = {
    "sieve.sieve_dk": ("values", lambda args, result: result.x),
    "sieve.write_table": ("bytes", lambda args, result: 20 + 8 * args[0].x),
    "sieve.read_table": ("bytes", lambda args, result: 20 + 8 * result.x),
    # Computed bytes: each class-sum pass reads X int64 values of the table.
    "sieve.ap_sums": ("bytes", lambda args, result: 8 * result.X),
    "sieve.exp_sum": None,
    "sieve.total_sum": None,
    "sieve.square_sum": None,
    "residues.ap_main_term": None,
    "residues.m_poly": None,
    "residues.f_star": None,
    "stats.variance_total": None,
    "stats.growth_study": None,
    "stats.parseval_check": None,
    "stats.density_square_sum_check": None,
    "stats.delta_value": None,
    "farey.dissection": ("arcs", lambda args, result: len(result)),
    "farey.verify_containment": ("arcs", lambda args, result: result.arcs_checked),
    "farey.denominator_counts": None,
    "arith.ramanujan_sum": None,
    "cli.main": None,
}

# Called up to millions of times per job for microseconds each: a span per
# call would cost more than the call, so these are counted only.
COUNTED = ("arith.factorize", "arith.divisors", "residues.local_correction_series")

# lru_cache'd functions whose hit ratio is read from cache_info().
CACHED = ("residues.m_poly", "residues.local_correction_series")


def hit_ratio(info) -> float:
    """Share of lookups answered from the cache, from a cache_info() tuple."""
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


class Tracer:
    """Installs span and count wrappers into the apvar modules while active.

    Use as a context manager around the work to trace; the originals are put
    back on exit.  Spans stay in memory until ``write_jsonl``.
    """

    def __init__(self, package, job_id: str):
        self.job_id = job_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self._package = package
        self._ids = itertools.count()
        self._local = threading.local()
        self._thread_counts: list[Counter] = []
        self._count_lock = threading.Lock()
        self._main_stack = self._state().stack  # of the thread that runs the traced work
        self._originals: dict[str, object] = {}
        self._restore: list[tuple] = []

    def _state(self):
        """This thread's span stack and counters (calls and quantities)."""
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.counts = Counter()
            with self._count_lock:
                self._thread_counts.append(st.counts)
        return st

    def _span(self, name, fn, quantity):
        spans, ids, main_stack = self.spans, self._ids, self._main_stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            idx = next(ids)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((idx, name, start, end, parent))
            if quantity is not None:
                label, read = quantity
                state.counts[f"{name}.{label}"] += read(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self._state().counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        pkg = self._package
        modules = {m: importlib.import_module(f"{pkg.__name__}.{m}") for m in MODULES}
        for name, quantity in [*SPANNED.items(), *((n, None) for n in COUNTED)]:
            module, attr = name.split(".")
            orig = getattr(modules[module], attr)
            self._originals[name] = orig
            wrapped = self._counter(name, orig) if name in COUNTED else self._span(name, orig, quantity)
            for namespace in (pkg, *modules.values()):
                for key, val in list(vars(namespace).items()):
                    if val is orig:
                        self._restore.append((namespace, key, orig))
                        setattr(namespace, key, wrapped)
        return self

    def __exit__(self, *exc):
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()
        return False

    def metrics(self) -> dict[str, float]:
        """Flat "<module>.<function>.<metric>" values for this job: span
        totals, counted calls and quantities summed over threads, and the
        hit ratios of the cached functions."""
        out: dict[str, float] = {}
        for name, t in layer_totals(self.spans).items():
            for key, value in t.items():
                out[f"{name}.{key}"] = value
        for counts in self._thread_counts:
            for key, value in counts.items():
                out[key] = out.get(key, 0) + value
        for name in CACHED:
            out[f"{name}.hit_ratio"] = hit_ratio(self._originals[name].cache_info())
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for idx, name, start, end, parent in self.spans:
                record = {"id": idx, "name": name, "start": start, "end": end, "parent": parent, "job": self.job_id}
                fh.write(json.dumps(record) + "\n")


def covered(interval, parts) -> float:
    """Length of the part of interval covered by the union of parts."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for a, b in sorted(parts):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """calls, busy_s and self_s per span name.

    busy_s sums the spans that have no ancestor of the same name, so a
    recursive call is counted once.  self_s sums, over every span, its
    duration minus the part of it that its child spans cover (children on
    pool threads may overlap each other).
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for idx, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for idx, name, start, end, parent in spans:
        t = out[name]
        t["calls"] += 1
        up = parent
        while up is not None and by_id[up][1] != name:
            up = by_id[up][4]
        if up is None:
            t["busy_s"] += end - start
        t["self_s"] += end - start - covered((start, end), children.get(idx, ()))
    return dict(out)
