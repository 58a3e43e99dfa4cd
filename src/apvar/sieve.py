"""Bulk tables of the k-fold divisor function with derived aggregates.

sieve_dk fills values[n] = d_k(n) for all n <= x in one multiplicative
pass over fixed-size segments, whatever k is.  Each segment is written to a
disjoint slice of the output, so running segments on threads (_on_cores,
which also runs a large class-sum pass's row blocks, on every core by
default) is bitwise identical to running them serially.  On top of the
table sit exact prefix/class aggregates, the exact autocorrelation
C(h) = sum_n d_k(n) d_k(n+h) from one FFT with its congruence sums for
every modulus at once, and the exponential sums S_X(a/q) assembled from the
class sums in O(q).
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .arith import d_k_max, primes_up_to
from .errors import CertificateError, DomainError, ResourceError

# At x = 10^7 on two cores 2^19 ties 2^20 and 2^18 is about 15% slower.
SEGMENT_SIZE = 1 << 19
# The most tasks _on_cores runs at once, the caller's thread included.
WORKERS = os.cpu_count() or 1
# Class sums reduce rows of at least this many values: numpy's column sum
# over rows of a few values is up to ten times slower than over wide rows.
FOLDED_ROW = 1024
SPLIT = 1 << 21  # the fewest values in a class-sum block (_column_sums)
# Moduli whose congruence sums are recomputed from their class sums: 64 passes
# over x values, about the cost of the FFT itself at x = 2^16.
CERTIFIED_MODULI = 64
# The largest value of an int32 table.  ap_sums adds an int32 table's rows
# in int32, (2^31 - 1) // top rows at a time, so this bound keeps chunks of
# at least 32 rows: over 10^7 values in rows of 1024, chunks of 32 rows take
# 7.3 ms against 9.3 ms for one int64 sum, chunks of 4 rows 16.8 ms (one core).
INT32_TOP = (2**31 - 1) // 32
# Values widened to int64, or read through the DKTB buffer, at a time (512 KB).
CHUNK = 1 << 16

_MAGIC = b"DKTB"
_VERSION = 1
_HEADER = struct.Struct("<4sIQI")  # magic, version, x, k


@dataclass(frozen=True)
class DkTable:
    """values[n] = d_k(n) for 1 <= n <= x (index 0 unused).

    values is int64 (sieve_dk), or int32 with every value in 0..INT32_TOP
    (read_table, when d_k_max(x, k) allows).  Every value is >= 0, and top,
    the largest, keeps x * top below 2^63, so no sum over the table wraps
    int64; it also bounds the rows ap_sums adds at a time in the table's dtype.
    """

    x: int
    k: int
    values: np.ndarray
    top: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = self.values
        if self.x < 0 or len(values) != self.x + 1:
            raise DomainError(f"table to x={self.x} needs {self.x + 1} values, got {len(values)}")
        if values.dtype not in (np.int32, np.int64):
            raise DomainError(f"table values must be int32 or int64, got {values.dtype}")
        # viewed unsigned, a negative value reads 2^31 or more (int32), 2^63 or more (int64)
        top = int(values.view(f"u{values.itemsize}").max())
        if values.dtype == np.int32 and top > INT32_TOP:
            raise DomainError(f"int32 table values must lie in 0..{INT32_TOP}")
        if max(self.x, 1) * top >= 2**63:
            raise DomainError(f"int64 sums need values >= 0 with x * top < 2^63, got top {top}")
        object.__setattr__(self, "top", top)
        values.setflags(write=False)


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


def _on_cores(fn, parts: range) -> list:
    """[fn(part) for part in parts]: the first part on the caller's thread,
    each other on a thread of its own that ends before this returns (so one
    part starts none); the first failing part's exception is raised here."""
    out, errors = [None] * len(parts), {}

    def run(i):
        try:
            out[i] = fn(parts[i])
        except BaseException as exc:
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(parts))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return out


def _sieve_segment(out: np.ndarray, lo: int, k: int, primes: list[int], scratch) -> None:
    """out[i] = d_k(lo + i) for lo+i in [lo, hi], hi = lo + len(out) - 1.

    Each prime power p^a <= hi with p <= sqrt(hi) scales the entries it
    divides by d_k(p^a) / d_k(p^(a-1)), exactly, since they already hold
    d_k(p^(a-1)) as a factor, and multiplies their smooth part by p.  What
    is left of n is 1 or one prime above sqrt(hi) (two would pass hi), so n
    has that prime, worth d_k(p) = k, exactly when its smooth part is not n;
    that last product goes straight into out.  scratch: the task's segment
    buffer (int32 is exact: no step takes an entry past its final d_k(n)),
    int32 smooth and int32 offsets 0, 1, ...
    """
    hi = lo + len(out) - 1
    seg, smooth, offsets = (buf[: len(out)] for buf in scratch)
    grow = [math.comb(a + k - 1, k - 1) for a in range(hi.bit_length())]
    seg.fill(1)
    smooth.fill(1)
    for p in primes:
        if p * p > hi:
            break
        pa, a = p, 1
        # start < len(seg) also ends the powers at hi: past it, start = pa - lo
        while (start := -lo % pa) < len(seg):
            step = seg[start::pa]
            if a > 1:
                step //= grow[a - 1]
            step *= grow[a]
            smooth[start::pa] *= p
            pa *= p
            a += 1
    smooth -= lo  # now equal to offsets exactly where the smooth part is n
    np.not_equal(smooth, offsets, out=smooth)  # 1 where the prime is left
    smooth *= k - 1
    smooth += 1
    np.multiply(seg, smooth, out=out)


def sieve_dk(x: int, k: int, *, threads: int | None = None) -> DkTable:
    """Exact d_k(n) for all n <= x, in one pass whatever k is (_sieve_segment).

    Segments go round-robin into min(threads, WORKERS, segments) tasks, one
    per thread (_on_cores), each writing its own slices, so tables are
    bit-identical at any thread count and SEGMENT_SIZE; threads=None means
    every core, min(WORKERS, segments) tasks.  Each task sieves into one
    segment buffer, int32 unless d_k_max(x, k) >= 2^31, and writes each
    segment's product straight into its slice of the int64 table, so every
    entry is written once.  The table is the one large allocation; it and
    each task's O(SEGMENT_SIZE) scratch raise ResourceError when memory
    runs out.
    """
    if not 1 <= x < 2**31:  # the smooth parts are int32
        raise DomainError(f"sieve limit must lie in 1..2^31-1, got {x}")
    if not 1 <= k <= 8:
        raise DomainError(f"fold parameter must lie in 1..8, got {k}")
    if threads is not None and threads < 1:
        raise DomainError(f"thread count must be positive, got {threads}")
    los = range(1, x + 1, SEGMENT_SIZE)
    tasks = min(threads or WORKERS, WORKERS, len(los))
    primes = primes_up_to(math.isqrt(x)).tolist()
    size = min(SEGMENT_SIZE, x)
    dtype = np.dtype(np.int32 if d_k_max(x, k) < 2**31 else np.int64)

    def fill(task):
        # Once per task: scratch allocated per segment in sieve threads left
        # up to 4 MB more peak RSS behind in the allocator.
        scratch = (np.empty(size, dtype), np.empty(size, np.int32), np.arange(size, dtype=np.int32))
        for lo in los[task::tasks]:
            _sieve_segment(values[lo : min(lo + SEGMENT_SIZE, x + 1)], lo, k, primes, scratch)

    try:
        if k == 1:
            values = np.ones(x + 1, dtype=np.int64)
        else:  # every entry is written by its segment
            values = np.empty(x + 1, dtype=np.int64)
            _on_cores(fill, range(tasks))
    except MemoryError as exc:
        need = 8 * (x + 1) + (8 + dtype.itemsize) * size * tasks  # table, scratch
        raise ResourceError(f"sieve of {x} values needs ~{need} bytes") from exc
    values[0] = 0
    return DkTable(x=x, k=k, values=values)


def total_sum(table: DkTable) -> int:
    """Exact sum of d_k(n) over the table."""
    # No wrap: every DkTable keeps x * top below 2^63.
    return int(table.values[1:].sum(dtype=np.int64))


def _int64_chunks(values: np.ndarray):
    """values in slices of at most CHUNK as int64: views of an int64 array,
    widened copies of a narrower one, so no whole int64 copy is made."""
    for lo in range(0, len(values), CHUNK):
        yield values[lo : lo + CHUNK].astype(np.int64, copy=False)


def exact_square_sum(values: np.ndarray) -> int:
    """Exact sum of squares of an int32 or int64 array: int64 dot products
    of CHUNK values at a time (an int32 dot wraps), added as Python ints,
    when CHUNK * max|v|^2 < 2^63 bounds every dot, else Python ints."""
    top = max(int(values.max()), -int(values.min())) if values.size else 0
    if CHUNK * top * top < 2**63:
        return sum(int(np.dot(chunk, chunk)) for chunk in _int64_chunks(values))
    return sum(v * v for v in values.tolist())


def square_sum(table: DkTable) -> int:
    """Exact sum of d_k(n)^2 over the table."""
    return exact_square_sum(table.values[1:])


def fft_error_bound(norms: float, size: int) -> float:
    """Percival's a-priori bound (Math. Comp. 72, 2003) on the largest error
    of a cyclic product of two real vectors x, y with |x|_2 |y|_2 = norms,
    computed by FFTs of length size = 2^n:
        norms * ((1+e)^(3n) (1+e sqrt 5)^(3n+1) (1+b)^(3n) - 1),
    e the float64 unit roundoff, with the twiddle factors taken accurate to
    b = e."""
    n = size.bit_length() - 1
    eps = 2.0**-53
    growth = 6 * n * math.log1p(eps) + (3 * n + 1) * math.log1p(eps * math.sqrt(5))
    return norms * math.expm1(growth)


def autocorrelation(values: np.ndarray) -> np.ndarray:
    """Exact C[h] = sum_n v[n] v[n+h] for 0 <= h < len(values).

    One real FFT of length 2^n >= 2 len - 1 and its inverse, rounded to
    integers.  Rounding is exact only while fft_error_bound stays below 1/2;
    where it would not, v is split into limbs of w bits,
    v = sum_i l_i 2^(w i), with as few limbs as keep every limb-pair product
    under the bound, and the rounded limb products are combined in
    integers.  Every rounded product must lie within its bound of the
    floats it came from, and C[0] must equal exact_square_sum(v); else
    CertificateError.  The result is int64 when v >= 0 and C[0] < 2^63,
    since every C[h] and every partial limb sum then lies below C[0];
    Python ints otherwise.
    """
    x = len(values)
    if x < 1:
        raise DomainError("autocorrelation needs at least one value")
    size = 1 << (2 * x - 1).bit_length()
    square = exact_square_sum(values)
    bits = max(int(values.max()), -int(values.min())).bit_length()
    for count in range(1, max(bits, 1) + 1):
        width = -(-bits // count)
        limbs = [(values >> (width * i)) & ((1 << width) - 1) for i in range(count - 1)]
        limbs.append(values >> (width * (count - 1)) if count > 1 else values)
        norms = [exact_square_sum(limb) for limb in limbs]
        bounds = {  # (i, count - 1) ... (i, i): spectrum i's last product is its own square
            (i, j): fft_error_bound((1 if i == j else 2) * math.sqrt(norms[i] * norms[j]), size)
            for i in range(count)
            for j in range(count - 1, i - 1, -1)
        }
        if max(bounds.values()) < 0.5:
            break
    else:
        raise ResourceError(f"no limb split keeps the FFT products of {x} values exact")
    wide = values.min() < 0 or square >= 2**63
    out = np.zeros(x, dtype=object if wide else np.int64)
    spectra = [np.fft.rfft(limb, size) for limb in limbs]
    del limbs
    # The transforms dominate peak memory: a zero-imaginary complex product spares irfft a copy.
    for (i, j), bound in bounds.items():
        if i == j:  # |F|^2 as re^2 + im^2 in spectrum i, whose last use this is
            product, spectra[i] = spectra[i], None
            np.square(product.real, out=product.real)
            product.real += np.square(product.imag)
        else:  # corr(l_i, l_j) + corr(l_j, l_i)
            product = spectra[i].conj()
            product *= spectra[j]
            product.real *= 2.0
        product.imag = 0.0
        raw = np.fft.irfft(product, size)[:x]
        del product
        rounded = np.rint(raw)
        raw -= rounded
        if np.abs(raw, out=raw).max() > bound:
            raise CertificateError(f"FFT product of limbs ({i}, {j}) exceeds its error bound")
        del raw
        term = rounded.astype(np.int64)
        if wide:
            term = term.astype(object)
        out += term * (1 << (width * (i + j)))
    if out[0] != square:
        raise CertificateError(f"FFT square sum {out[0]} differs from exact {square}")
    return out


def multiple_sums(a: np.ndarray, Q: int) -> np.ndarray:
    """out[e] = sum of a[m] over the multiples m >= e of e, for 1 <= e <= Q
    (out[0] = 0), by Dirichlet's hyperbola split at B = min(Q, isqrt(n)),
    n = len(a) - 1: one strided sum for each e <= B, and for B < e <= Q,
    whose multiples j e all have j <= n // (B + 1), one pass per multiplier j
    that adds a[j e] to every such e at once, about 2 sqrt(n) passes in all.
    Accumulated in int64 (an int32 table's strided sums pass 2^31), or in
    Python ints when a holds them; integer sums do not depend on the order."""
    out = np.zeros(Q + 1, dtype=object if a.dtype == object else np.int64)
    n = len(a) - 1
    B = min(Q, math.isqrt(n))
    for e in range(1, B + 1):
        out[e] = a[e::e].sum(dtype=out.dtype)
    if Q > B:
        for j in range(1, n // (B + 1) + 1):
            top = min(Q, n // j)
            out[B + 1 : top + 1] += a[j * (B + 1) : j * top + 1 : j]
    return out


def congruence_sums(table: DkTable, x: int, Q: int) -> np.ndarray:
    """sum_a A(x; q, a)^2 for every q <= Q (index 0 unused), exactly.

    Two n, m <= x share a class mod q exactly when q | n - m, so the sum is
    C(0) + 2 sum_{j>=1} C(jq) over the autocorrelation C of d_k up to x.
    In int64 when (sum d_k(n))^2 < 2^63 bounds every sum, else Python
    ints.  The moduli q <= min(Q, CERTIFIED_MODULI) certify the
    autocorrelation: each of their sums must equal the square sum of its
    class sums from ap_sums, and the trivial modulus alone already covers
    every C(h), since its one class holds every n.
    """
    if not 1 <= x <= table.x:
        raise DomainError(f"cutoff {x} outside 1..{table.x}")
    if not 1 <= Q <= x:
        raise DomainError(f"need 1 <= Q <= x, got Q={Q}, x={x}")
    values = table.values[1 : x + 1]
    mass = int(values.sum(dtype=np.int64))  # exact: the table keeps x * top below 2^63
    corr = autocorrelation(values)
    if mass * mass >= 2**63:
        corr = corr.astype(object)
    out = corr[0] + 2 * multiple_sums(corr, Q)
    out[0] = 0
    for q in range(1, min(Q, CERTIFIED_MODULI) + 1):
        direct = exact_square_sum(ap_sums(table, q, x).sums[1:])
        if out[q] != direct:
            raise CertificateError(f"congruence sum mod {q} is {out[q]}, not {direct}")
    return out


def _column_sums(rows: np.ndarray, step: int) -> np.ndarray:
    """rows.sum(axis=0) in int64 from one block of whole rows per core
    (_on_cores), of SPLIT values or more each, summed `step` rows at a time
    in rows' dtype, which the caller's step keeps from wrapping; the exact
    partials add in block order.  On two cores two blocks lose at 2^21
    values and break even near 2^22."""
    parts = max(1, min(WORKERS, rows.size // SPLIT, len(rows)))
    if parts == 1:
        return _step_sums(rows, step)
    blocks = [rows[len(rows) * i // parts : len(rows) * (i + 1) // parts] for i in range(parts)]
    first, *rest = _on_cores(lambda i: _step_sums(blocks[i], step), range(parts))
    return sum(rest, first)


def _step_sums(rows: np.ndarray, step: int) -> np.ndarray:
    """rows.sum(axis=0) in int64, summed `step` rows at a time in rows' dtype."""
    out = rows[:step].sum(axis=0, dtype=rows.dtype).astype(np.int64, copy=False)
    for lo in range(step, len(rows), step):
        out += rows[lo : lo + step].sum(axis=0, dtype=rows.dtype)
    return out


def ap_sums(table: DkTable, q: int, X: int) -> ResidueClassSums:
    """Exact class sums A(X; q, a) for a = 1..q in one pass."""
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if not 1 <= X <= table.x:
        raise DomainError(f"cutoff {X} outside 1..{table.x}")
    v = table.values
    try:
        out = np.zeros(q + 1, dtype=np.int64)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest size
        raise ResourceError(f"class sums mod {q} need ~{8 * (q + 1)} bytes") from exc
    # Rows sum in the table's dtype, step of them at a time: its largest value
    # over top, >= 32 for int32 (top <= INT32_TOP), all rows for int64 (x * top
    # < 2^63).  Not np.iinfo, which costs 0.7 us a call.
    step = (2 ** (8 * v.itemsize - 1) - 1) // max(table.top, 1)
    # m rows of q values folded into one row of m q >= FOLDED_ROW values, so
    # that a small q still reduces along wide rows; the m pieces add after.
    m = -(-FOLDED_ROW // q)
    full = X // (m * q)
    if full:
        wide = _column_sums(v[1 : full * m * q + 1].reshape(full, m * q), step)
        out[1:] = wide.reshape(m, q).sum(axis=0)
    start = full * m * q + 1
    rows, rest = divmod(X - start + 1, q)
    if rows:
        out[1:] += _column_sums(v[start : start + rows * q].reshape(rows, q), step)
    if rest:
        out[1 : rest + 1] += v[start + rows * q : X + 1]
    return ResidueClassSums(q=q, X=X, k=table.k, sums=out)


def exp_sum(cls: ResidueClassSums, a: int) -> ExpSumValue:
    """S_X(a/q) assembled from the class sums in O(q).

    With n = B j + i (0 <= i < B ~ sqrt q), e(r n/q) = e(r i/q) e(r B j/q):
    the class sums, as a (rows, B) matrix, are summed against the cosines
    and sines of the B angles lo, then against those of the rows angles hi.
    Every exponent is reduced mod q exactly in int64 (so q^2 < 2^63) before
    it becomes an angle below 2 pi.  Only real products and sums: no complex
    ufunc and no BLAS call, whose rounding would follow the SIMD level.
    """
    q = cls.q
    if q * q >= 2**63:
        raise DomainError(f"modulus {q} too large: r n mod q must fit in int64")
    r = a % q
    B = math.isqrt(q) + 1
    rows = -(-(q + 1) // B)
    w = np.zeros(rows * B)
    w[1 : q + 1] = cls.sums[1:]  # class q sits at n = q, where e(r q/q) = 1
    n = np.arange(max(B, rows), dtype=np.int64)
    lo = (2 * math.pi / q) * (n[:B] * r % q)
    hi = (2 * math.pi / q) * (n[:rows] * (r * B % q) % q)
    w = w.reshape(rows, B)
    re, im = (w * np.cos(lo)).sum(axis=1), (w * np.sin(lo)).sum(axis=1)
    hc, hs = np.cos(hi), np.sin(hi)
    val_re = float((re * hc).sum() - (im * hs).sum())
    val_im = float((re * hs).sum() + (im * hc).sum())
    return ExpSumValue(re=val_re, im=val_im, a=r, q=q, X=cls.X)


def write_table(table: DkTable, path) -> None:
    """Write the binary cache format: header then x little-endian u64,
    widened CHUNK values at a time."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, table.x, table.k))
        for chunk in _int64_chunks(table.values[1:]):
            fh.write(chunk.astype("<i8", copy=False).data)


def read_table(path) -> DkTable:
    """Read a table written by write_table, checking the header and then the
    file size before it allocates.  The header sets the width: int32 when
    d_k_max(x, k) <= INT32_TOP, else int64.  The u64 payload is read once,
    CHUNK values at a time; a value above d_k_max(x, k) is a DomainError.  A
    wrong value at or below the bound passes, and so does a table relabelled
    with a larger k (a d_2 table labelled k = 3)."""
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
        bound = d_k_max(x, k)
        dtype = np.dtype(np.int32 if bound <= INT32_TOP else np.int64)
        try:
            values = np.zeros(x + 1, dtype=dtype)
        except MemoryError as exc:
            raise ResourceError(f"{path}: {x} values need ~{dtype.itemsize * x} bytes") from exc
        buffer = np.empty(min(x, CHUNK), dtype="<u8")
        for lo in range(1, x + 1, CHUNK):
            chunk = buffer[: min(CHUNK, x + 1 - lo)]
            if fh.readinto(chunk) != chunk.nbytes:
                raise DomainError(f"{path}: payload ends early")
            if chunk.max() > bound:
                n = lo + int(np.argmax(chunk > bound))
                why = f"value {chunk[n - lo]} at n={n} exceeds {bound} = max d_{k}(n), n <= {x}"
                raise DomainError(f"{path}: {why}")
            values[lo : lo + len(chunk)] = chunk  # exact: every value fits dtype
    return DkTable(x=int(x), k=int(k), values=values)
