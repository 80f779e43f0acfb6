"""Arithmetic in GF(2^8).

The field is fixed to the reduction polynomial x^8+x^4+x^3+x+1 (0x11B) with
generator 0x03 for the log/antilog tables, so fragment files are bit-exact
across builds.  Tables are built once at import; all operations are pure.

``_in_parts`` splits a loop into parts of at least _PART_MIN_BYTES, one
thread per usable core (numpy releases the interpreter lock inside its table
lookups and XORs); ``matmul`` and the codec's row loops use it.
``_map_in_parts`` maps a function over a list the same way; the file reads
and SHA-256 digests of ``dispersal`` use it (both release the lock too).
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable

import numpy as np

from .errors import ParameterError

REDUCTION_POLY = 0x11B
GENERATOR = 0x03


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    # exp is doubled so exp[log a + log b] never needs a mod-255 reduction
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(256, dtype=np.uint8)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by the generator 0x03 = x * 2 ^ x, reduced mod 0x11B
        x2 = x << 1
        if x2 & 0x100:
            x2 ^= REDUCTION_POLY
        x = (x2 ^ x) & 0xFF
    exp[255:510] = exp[0:255]
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()

# 64 KiB product table: MUL_TABLE[a, b] == mul(a, b).  Row a doubles as the
# multiply-by-a lookup table used by the vectorized codec paths.
MUL_TABLE = EXP_TABLE[LOG_TABLE[:, None].astype(np.intp) + LOG_TABLE[None, :].astype(np.intp)]
MUL_TABLE[0, :] = 0
MUL_TABLE[:, 0] = 0
MUL_TABLE.setflags(write=False)

INV_TABLE = np.zeros(256, dtype=np.uint8)
INV_TABLE[1:] = EXP_TABLE[255 - LOG_TABLE[1:].astype(np.intp)]
INV_TABLE.setflags(write=False)


try:
    _CORES = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity API on this platform
    _CORES = os.cpu_count() or 1
# A part covers at least this many bytes of rows.  Each codec scan sweep makes
# 254 steps of four numpy calls per part, so a 4 MiB part makes calls of about
# 16 KiB; with smaller calls the threads wait on the interpreter lock more
# than they work: on a 2-core host the c == 2 encode of 5-6 MiB ran up to
# 1.45x slower on two threads than on one.
_PART_MIN_BYTES = 4 << 20


def _in_parts(n: int, nbytes: int, fn: Callable[[int, int], None]) -> None:
    """Run fn(lo, hi) over contiguous parts of range(n), one thread per core.

    A part covers at least _PART_MIN_BYTES of the nbytes the range covers.
    The caller runs the first part itself and joins every thread before it
    returns or re-raises the first exception a part raised.
    """
    parts = max(1, min(_CORES, n, nbytes // _PART_MIN_BYTES))
    cuts = [n * i // parts for i in range(parts + 1)]
    errors: list[BaseException] = []

    def run(lo: int, hi: int) -> None:
        try:
            fn(lo, hi)
        except BaseException as exc:  # re-raised on the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(cuts[i], cuts[i + 1]))
        for i in range(1, parts)
    ]
    for thread in threads:
        thread.start()
    run(cuts[0], cuts[1])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _map_in_parts(fn: Callable, items: list, nbytes: int) -> list:
    """``[fn(x) for x in items]``, with the items split into parts as by _in_parts."""
    out: list = [None] * len(items)

    def part(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            out[i] = fn(items[i])

    _in_parts(len(items), nbytes, part)
    return out


def mul(a: int, b: int) -> int:
    """Field multiplication via the log/antilog tables."""
    return int(MUL_TABLE[a, b])


def inv(a: int) -> int:
    """Multiplicative inverse; zero has none."""
    if a == 0:
        raise ZeroDivisionError("no inverse of zero")
    return int(INV_TABLE[a])


def power(a: int, e: int) -> int:
    """a**e in the field, e >= 0."""
    if e == 0:
        return 1
    if a == 0:
        return 0
    return int(EXP_TABLE[(int(LOG_TABLE[a]) * e) % 255])


def matmul(a: np.ndarray, rows) -> np.ndarray:
    """Multiply the (n, k) matrix ``a`` by k equal-length byte rows over the field.

    ``rows`` is a (k, L) uint8 array or a list of k uint8 rows of length L;
    the result is (n, L).  Each term is one multiply-by-constant table lookup
    over a whole row, XORed into the output in place; zero coefficients are
    skipped and unit ones need no lookup.  The columns split into parts, each
    with its own scratch row.
    """
    n, k = a.shape
    if len(rows) != k:
        raise ParameterError(f"matmul shape mismatch: {a.shape} x {len(rows)} rows")
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise ParameterError(f"rows differ in length: {sorted(lengths)}")
    (length,) = lengths
    out = np.zeros((n, length), dtype=np.uint8)
    coeffs = a.tolist()

    def columns(lo: int, hi: int) -> None:
        buf = np.empty(hi - lo, dtype=np.uint8)
        for i in range(n):
            dst = out[i, lo:hi]
            for t in range(k):
                coeff = coeffs[i][t]
                if coeff == 1:
                    dst ^= rows[t][lo:hi]
                elif coeff:
                    MUL_TABLE[coeff].take(rows[t][lo:hi], out=buf, mode="clip")
                    dst ^= buf

    _in_parts(length, k * length, columns)
    return out


def invert_matrix(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix over the field by Gauss-Jordan elimination."""
    n = m.shape[0]
    if m.shape != (n, n):
        raise ParameterError(f"matrix is not square: {m.shape}")
    a = m.astype(np.uint8).copy()
    out = np.eye(n, dtype=np.uint8)
    for col in range(n):
        pivot = col + int(np.argmax(a[col:, col] != 0)) if a[col:, col].any() else -1
        if pivot < 0 or a[pivot, col] == 0:
            raise ParameterError("singular matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            out[[col, pivot]] = out[[pivot, col]]
        scale = inv(int(a[col, col]))
        a[col] = MUL_TABLE[scale, a[col]]
        out[col] = MUL_TABLE[scale, out[col]]
        for row in range(n):
            if row != col and a[row, col] != 0:
                factor = int(a[row, col])
                a[row] ^= MUL_TABLE[factor, a[col]]
                out[row] ^= MUL_TABLE[factor, out[col]]
    return out
