"""Bulk tables of the k-fold divisor function with derived aggregates.

sieve_dk fills values[n] = d_k(n) for all n <= x by k-1 rounds of divisor
convolution with the constant-1 function, processed over fixed-size
segments.  Each segment is written to a disjoint slice of the output, so
running segments on a thread pool is bitwise identical to running them
serially.  On top of the table sit exact prefix/class aggregates and the
exponential sums S_X(a/q) assembled from the class sums in O(q).
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

DEFAULT_SEGMENT_SIZE = 1 << 20

_MAGIC = b"DKTB"
_VERSION = 1
_HEADER = struct.Struct("<4sIQI")  # magic, version, x, k


@dataclass(frozen=True)
class DkTable:
    """values[n] = d_k(n) for 1 <= n <= x (index 0 unused)."""

    x: int
    k: int
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class ResidueClassSums:
    """sums[a] = sum of d_k(n) over n <= X with n = a (mod q), a in 1..q.

    The residue a=q carries the class 0.  Index 0 of sums is unused.
    """

    q: int
    X: int
    k: int
    sums: np.ndarray

    def __post_init__(self):
        self.sums.setflags(write=False)


@dataclass(frozen=True)
class ExpSumValue:
    """S_X(a/q) = sum_{n<=X} d_k(n) e(na/q), with a stored reduced mod q."""

    re: float
    im: float
    a: int
    q: int
    X: int

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


def _transform_segment(prev: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """seg[i] = sum_{d | (lo+i)} prev[d] for lo+i in [lo, hi].

    Small divisors d <= sqrt(hi) are walked directly; larger divisors are
    grouped by cofactor j, one strided slice per j.
    """
    seg = np.zeros(hi - lo + 1, dtype=np.int64)
    t = math.isqrt(hi)
    for d in range(1, t + 1):
        first = ((lo + d - 1) // d) * d
        if first <= hi:
            seg[first - lo :: d] += prev[d]
    for j in range(1, hi // (t + 1) + 1):
        dlo = max(t + 1, -(-lo // j))
        dhi = hi // j
        if dlo <= dhi:
            seg[j * dlo - lo : j * dhi - lo + 1 : j] += prev[dlo : dhi + 1]
    return seg


def _divisor_transform(
    prev: np.ndarray, threads: int, segment_size: int
) -> np.ndarray:
    x = len(prev) - 1
    out = np.zeros_like(prev)
    bounds = [
        (lo, min(lo + segment_size - 1, x)) for lo in range(1, x + 1, segment_size)
    ]

    def fill(bound):
        lo, hi = bound
        out[lo : hi + 1] = _transform_segment(prev, lo, hi)

    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, bounds))
    else:
        for bound in bounds:
            fill(bound)
    return out


def sieve_dk(
    x: int,
    k: int,
    *,
    threads: int = 1,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> DkTable:
    """Exact d_k(n) for all n <= x.

    Segment boundaries depend only on segment_size, never on the thread
    count, so tables are reproducible bit for bit.
    """
    if x < 1:
        raise DomainError(f"sieve limit must be >= 1, got {x}")
    if not 1 <= k <= 8:
        raise DomainError(f"fold parameter must lie in 1..8, got {k}")
    if segment_size < 1:
        raise DomainError("segment size must be positive")
    need = 8 * (x + 1) * 2  # current and next round
    try:
        values = np.ones(x + 1, dtype=np.int64)
    except MemoryError as exc:
        raise ResourceError(f"sieve of {x} values needs ~{need} bytes") from exc
    values[0] = 0
    for _ in range(k - 1):
        values = _divisor_transform(values, threads, segment_size)
    return DkTable(x=x, k=k, values=values)


def total_sum(table: DkTable) -> int:
    """Exact sum of d_k(n) over the table."""
    # No wrap: a sieved total is below x (1+log x)^(k-1), and read_table
    # rejects a file whose x * max value reaches 2^63.
    return int(table.values[1:].sum(dtype=np.int64))


def exact_square_sum(values: np.ndarray) -> int:
    """Exact sum of squares of an int64 array: one int64 dot product when
    len * max|v|^2 < 2^63 bounds every partial sum, else Python ints."""
    top = max(int(values.max()), -int(values.min())) if values.size else 0
    if values.size * top * top < 2**63:
        return int(np.dot(values, values))
    return sum(v * v for v in values.tolist())


def square_sum(table: DkTable) -> int:
    """Exact sum of d_k(n)^2 over the table."""
    return exact_square_sum(table.values[1:])


def ap_sums(table: DkTable, q: int, X: int) -> ResidueClassSums:
    """Exact class sums A(X; q, a) for a = 1..q in one pass."""
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if not 1 <= X <= table.x:
        raise DomainError(f"cutoff {X} outside 1..{table.x}")
    v = table.values
    out = np.zeros(q + 1, dtype=np.int64)
    full = X // q
    if full:
        out[1:] = v[1 : full * q + 1].reshape(full, q).sum(axis=0, dtype=np.int64)
    rest = X - full * q
    if rest:
        out[1 : rest + 1] += v[full * q + 1 : X + 1]
    return ResidueClassSums(q=q, X=X, k=table.k, sums=out)


def exp_sum(cls: ResidueClassSums, a: int) -> ExpSumValue:
    """S_X(a/q) assembled from the class sums in O(q)."""
    q = cls.q
    r = a % q
    phases = np.exp((2j * math.pi * r / q) * np.arange(1, q + 1))
    val = complex(np.dot(phases, cls.sums[1:]))
    return ExpSumValue(re=val.real, im=val.imag, a=r, q=q, X=cls.X)


def write_table(table: DkTable, path) -> None:
    """Write the binary cache format: header then x little-endian u64."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, table.x, table.k))
        fh.write(table.values[1:].astype("<i8", copy=False).view("<u8").data)


def read_table(path) -> DkTable:
    """Read a table written by write_table; validates the header, the file
    size (before allocating) and that x times the largest value, a bound on
    every sum over the table, fits in int64."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DomainError(f"{path}: truncated header")
        magic, version, x, k = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise DomainError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise DomainError(f"{path}: unsupported version {version}")
        if not 1 <= k <= 8:
            raise DomainError(f"{path}: fold parameter {k} outside 1..8")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != 8 * x:
            raise DomainError(f"{path}: expected {8 * x} payload bytes, got {size}")
        try:
            values = np.zeros(x + 1, dtype="<i8")
        except MemoryError as exc:
            raise ResourceError(f"{path}: table of {x} values needs ~{8 * x} bytes") from exc
        got = fh.readinto(values[1:])
    if got != 8 * x:
        raise DomainError(f"{path}: expected {8 * x} payload bytes, read {got}")
    raw = values[1:].view("<u8")
    top = int(raw.max()) if raw.size else 0
    if x * top >= 2**63:
        raise DomainError(f"{path}: x * max value = {x} * {top} does not fit in int64")
    return DkTable(x=int(x), k=int(k), values=values)
