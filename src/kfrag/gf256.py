"""Arithmetic in GF(2^8).

The field is fixed to the reduction polynomial x^8+x^4+x^3+x+1 (0x11B) with
generator 0x03 for the log/antilog tables, so fragment files are bit-exact
across builds.  Tables are built once at import; all operations are pure.

``_in_parts`` splits a loop into parts of at least _PART_MIN_BYTES, one
thread per usable core (numpy releases the interpreter lock inside its table
lookups and XORs); the codec's row loops use it, and ``_run_parts`` runs a
loop in a part count its caller chose (the codec's decode bounds its own by
its scratch, ``matmul`` by its column chunk).
``_map_in_parts`` maps a function over a list the same way; the file reads,
writes and SHA-256 digests of ``dispersal`` use it (they release the lock
too), as does ``join``, which writes each piece of its output while a second
part hashes it, each part then reading the next segment's rows of half the
fragment files.  ``dispersal`` reads one large file and stores a set's objects
in parts as well.  A loop run from inside one of two or more parts runs as one
part, on that part's thread: a file that would be read in parts on its own
is read whole by a part of a loop over files, so no more threads run than
there are cores.  A loop run inside a lone part, such as the decode of a
piece ``write_files`` writes as the only file, still runs in parts.  Every
thread kfrag starts is started here.
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
# A part covers at least this many bytes of rows.  The codec's c == 2 scan
# makes two numpy calls per step and part in its sweep (a lookup and an XOR),
# each over one row of every batch of the part, so a 4 MiB part makes calls
# of about 16 KiB; its correction makes one lookup, one XOR and one
# write-back take per _LAMBDA_ROWS = 8 rows of every batch of the part.  With
# smaller calls the threads wait on the interpreter lock more than they work.
# Measured when _LAMBDA_ROWS was 4 and the correction made an XOR and a
# gather per row, before chunked splits: one part vs two (forced), medians of 15
# interleaved encode_data calls in each of two processes on a 2-core Xeon,
# ms, one part in the first/second process vs two parts in the first/second:
#   (4,2,250):  4 MiB 21.4/20.3 vs 27.0/28.7, 5 MiB 23.6/26.0 vs 27.8/32.3,
#               6 MiB 50.0/29.1 vs 40.2/34.8, 8 MiB 67.0/37.2 vs 49.4/34.4
#   (4,2,16):   4 MiB 24.7/21.0 vs 32.8/30.8, 5 MiB 26.5/31.6 vs 29.9/34.2,
#               6 MiB 35.2/33.5 vs 37.8/36.7, 8 MiB 68.8/66.5 vs 49.7/54.8
#   (16,2,250): 4 MiB 38.2/36.4 vs 38.2/41.5, 5 MiB 46.3/47.4 vs 45.0/43.9,
#               6 MiB 53.9/49.4 vs 50.2/44.9, 8 MiB 62.6/38.2 vs 52.0/45.1
# Two parts lost at 4 MiB (1.00-1.47x), were mixed at 5-6 MiB (0.80-1.24x)
# and mostly won at 8 MiB (0.72-0.93x, once 1.18x), so two parts start at
# 8 MiB.
_PART_MIN_BYTES = 4 << 20
# matmul's column chunk.  Medians of 9 interleaved calls in one process on a
# 2-core Xeon, ms, for chunks of 8/16/32/64 KiB against the unblocked kernel
# (which widened each whole row once per output row):
#   2x6 on 8 MiB (RS parity at k = 6):  one core 22.3/20.6/21.4/20.5 vs 33.8,
#                                       two cores 30.0/21.6/22.0/21.5 vs 37.8
#   1x6 on 8 MiB (one row rebuilt):     one core 11.6/10.3/10.3/11.2 vs 16.6,
#                                       two cores 13.7/12.7/11.3/13.0 vs 20.5
#   4x4 on 32 MiB:                      one core 173/147/146/177 vs 481,
#                                       two cores 214/148/128/119 vs 275
# From 16 KiB the chunk hardly matters; 32 KiB keeps each part's scratch
# at k * 256 KiB of widened indices plus one chunk.
#
# matmul's calls cover a chunk of columns at any part count, so it takes its
# part count from its own minimum: a part covers at least one chunk of
# columns.  One part vs two (forced), medians of 41 interleaved calls in one
# process on a 2-core Xeon, ms, on 6 rows of 16/32/48/64/96/128/256/512 KiB:
#   2x6: one 0.51/0.88/1.22/1.45/2.16/2.87/5.86/11.5,
#        two 0.73/0.90/1.12/1.12/1.65/2.01/3.98/7.06
#   1x6: one 0.23/0.43/0.67/0.86/1.72/1.66/3.08/6.57,
#        two 0.42/0.56/0.66/0.79/1.33/1.29/2.11/4.11
# Two parts lost up to 32 KiB rows and won from 64 KiB (0.77x and 0.91x).
_MATMUL_CHUNK = 32 << 10
# whether this thread is running a part of _run_parts
_inside = threading.local()


def _in_parts(n: int, nbytes: int, fn: Callable[[int, int], None]) -> None:
    """Run fn(lo, hi) over contiguous parts of range(n), one thread per core.

    A part covers at least _PART_MIN_BYTES of the nbytes the range covers.
    """
    _run_parts(n, nbytes // _PART_MIN_BYTES, fn)


def _run_parts(n: int, parts: int, fn: Callable[[int, int], None]) -> None:
    """Run fn(lo, hi) over up to ``parts`` contiguous parts of range(n), one thread each.

    This is kfrag's one part policy.  There is at least one part, and at
    most one per core and per item; a loop run from inside a part of a loop
    that runs in two or more parts is one part, so nested loops never start
    more threads than there are cores, while a loop inside a lone part may
    still use them all.  The caller runs the first part itself and joins
    every thread before it returns or re-raises the exception of the
    lowest-numbered part that raised, so an error does not depend on which
    thread met its own first.
    """
    nested = getattr(_inside, "part", False)
    parts = 1 if nested else max(1, min(_CORES, n, parts))
    cuts = [n * i // parts for i in range(parts + 1)]
    errors: dict[int, BaseException] = {}

    def run(i: int) -> None:
        _inside.part = nested or parts > 1
        try:
            fn(cuts[i], cuts[i + 1])
        except BaseException as exc:  # re-raised on the caller below
            errors[i] = exc
        finally:
            _inside.part = nested

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, parts)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]


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
    the result is (n, L).  Each term is one multiply-by-constant table lookup,
    XORed into the output in place; zero coefficients are skipped and unit
    ones need no lookup.  The columns split into parts, and each part walks
    them in chunks of _MATMUL_CHUNK: it widens each input row's chunk to the
    lookup's index type once and reuses it for every output row, so its
    scratch is k + 1 chunks whatever L.  A part covers at least one chunk, so
    two parts start at rows of 64 KiB.
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
    looked_up = [t for t in range(k) if any(row[t] > 1 for row in coeffs)]

    def columns(lo: int, hi: int) -> None:
        wide = np.empty((k, min(_MATMUL_CHUNK, hi - lo)), dtype=np.intp)
        buf = np.empty(wide.shape[1], dtype=np.uint8)
        for c0 in range(lo, hi, _MATMUL_CHUNK):
            c1 = min(c0 + _MATMUL_CHUNK, hi)
            w = c1 - c0
            for t in looked_up:
                wide[t, :w] = rows[t][c0:c1]
            for i in range(n):
                dst = out[i, c0:c1]
                for t in range(k):
                    coeff = coeffs[i][t]
                    if coeff == 1:
                        dst ^= rows[t][c0:c1]
                    elif coeff:
                        MUL_TABLE[coeff].take(wide[t, :w], out=buf[:w], mode="clip")
                        dst ^= buf[:w]

    _run_parts(length, length // _MATMUL_CHUNK, columns)
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
