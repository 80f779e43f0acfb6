"""Keyless fragmentation codec.

Data is cut into fixed-size blocks dealt round-robin over k fragments, then
encoded bottom row to top row.  Each byte (mini-block) becomes one point of a
degree c-1 polynomial whose coefficients are the previous-row bytes of the
c-1 neighbor fragments, and the encoded byte is written to a position chosen
by a secret permutation.  The permutations are XOR-split into shares that
double as the first (initialization) row of every fragment, so recovering
anything requires all k fragments: the scheme is a k-of-k threshold without
any encryption key.

Row i of fragment j uses the previous row of fragments (j+1)%k .. (j+c-1)%k
as coefficient sources and the permutation array indexed j % (k/c).  The
permutation share carried by fragment j is share j%c of array j//c, which is
generally not the array the fragment itself was permuted with.

Encoding runs in the fragment frame.  One gather per chunk of rows copies
the payload into a buffer y of rows of m = k*bs bytes, y_r[q] = rows_r[pi[q]]
with the last row zero-padded: pi maps position w of fragment j's shares to
the byte of block j that its permutation puts there.  The recurrence then
overwrites each row in place, y_r ^= sum_t x_r^t * y_{r-1}[D_t], where
D_t[q] = (pi[q] + t*bs) % m: the byte at position v of block j reads the
previous share row of fragment (j+t) % k at the same position v.  The row
before the first is the permutation shares.  Fragment j's shares are the
column block j of y, a strided view, so the payload is held once.  One step,
_sweep, runs the recurrence over one range of rows with c + 1 numpy calls
per row whatever k and the block size, for any c.  For c == 2 from 508
rows, a blocked scan encodes the whole batches of 254 payload rows instead,
exploiting the linearity of the recurrence to advance the batches at once.
It holds row i of a batch in the drifted frame Q_i = D^-(i+1), D = D_1,
where the recurrence is elementwise, so each byte is gathered once from the
payload and once back to the fragment frame, with no gather between rows.
The recurrence runs once, from a zero entry state in every batch; each row
is then corrected by its batch's true entry state times Λ_i, the product of
the x of the batch's rows up to i, a pass in which no row waits for the row
before it.  The boundary between batches is the one step specific to
c == 2.  The rows after the last whole batch run through the gather and
_sweep as one range.  Both paths produce bit-identical fragments.

A payload also encodes a chunk of rows at a time: encode_chunks cuts its
share rows into ranges of whole 254-row batches (the last takes the rest),
each long enough for the scan to run on every core, and each chunk takes
the permutations and the last share row of the chunk before it.  The rows
of the chunks, joined, are those of the whole payload.

Decoding runs in the data frame, with one gather per fragment from its
shares straight into the output rows, then adds the neighbor terms, which
have no cross-row dependency, over many rows per numpy call.  So any range
of share rows decodes on its own, from the share row before it (row 0 from
the permutation shares): decode_segments cuts the rows into equal ranges
that each still decode on every core, and a caller can decode, write and
drop them one after another, holding one range of output at a time.

The scan's sweep and correction and the gathers of both directions split
into parts, one thread per usable core; the decode bounds its part count by
the scratch each part holds, and the one-range sweep runs on the caller's
thread.  The bytes do not depend on the number of parts or ranges.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ThresholdError
from . import gf256
from .gf256 import EXP_TABLE, LOG_TABLE, MUL_TABLE, _in_parts, _run_parts
from .permutation import (
    MAX_POSITIONS,
    PermutationArray,
    PermutationShare,
    generate_permutations,
    reconstruct_permutation,
    split_permutation,
)

# x values cycle with this period; the blocked scan aligns its batches to it
# so every batch sees the same x sequence.
_X_PERIOD = 254
_SCAN_MIN_ROWS = 2 * _X_PERIOD
# discrete log of pick_x(t + 1) for t in range(_X_PERIOD)
_X_LOGS = LOG_TABLE[2 + np.arange(1, _X_PERIOD + 1) % _X_PERIOD].astype(np.intp)
# A decode part covers at least this many bytes.  Its calls cover chunks of
# 256 KiB of rows whatever the part count, so two threads win from a few
# chunks.  Medians of 41 interleaved decodes in one process on a 2-core Xeon,
# ms, one thread vs two (parts forced):
#   (4,2,250): 1 MiB 4.3 vs 3.0, 2 MiB 9.4 vs 5.7, 4 MiB 18.5 vs 10.7,
#              8 MiB 35.4 vs 20.3
#   (8,4,16):  1 MiB 14.1 vs 8.4, 2 MiB 26.1 vs 15.4, 4 MiB 49.4 vs 28.8,
#              8 MiB 72.2 vs 49.0
# A part also covers at least five times its scratch (see _decode_rows), so
# the scratch of all parts stays within a fifth of the output on any core count.
_DECODE_PART_MIN_BYTES = 1 << 20
# Indices per take of the scan's drifted gather.  From 16 Ki to 64 Ki the
# gather ran as fast as the fragment-frame gather at m = 64, 1000 and 4000
# (32 MiB, one core); at 4 Ki it was up to 1.5x slower.
_GATHER_INDICES = 1 << 15
# Rows per step of the scan's correction: one take of Λ_i * E, one XOR and one
# write-back take cover this many rows of every batch of a part, so the
# threads of a small part hand each other the interpreter lock less often.
# Medians of 9 interleaved runs in one process on a 2-core Xeon, ms, 4 rows
# vs 8: a 32 MiB (4,2,250) encode_data 133.1 vs 119.0 on two cores and
# 222.0 vs 188.7 on one; the same payload in the three chunks of
# encode_chunks 164.3 vs 135.1 and 204.1 vs 185.8.  Each row of a step adds
# three rows of every batch of the part to its scratch (Λ_i * E, the XOR and
# the write-back's buffer), 24/254 of the part's rows.
_LAMBDA_ROWS = 8


@dataclass(frozen=True)
class CodecParams:
    """Fragmentation parameters: k fragments over c sites, |b|-byte blocks."""

    k: int
    c: int
    block_size: int

    def __post_init__(self) -> None:
        if self.c < 2:
            raise ParameterError(f"c must be at least 2, got {self.c}")
        if self.k < self.c:
            raise ParameterError(f"k must be at least c, got k={self.k}, c={self.c}")
        if self.k % self.c != 0:
            raise ParameterError(f"k must be a multiple of c, got k={self.k}, c={self.c}")
        if not 2 <= self.block_size <= MAX_POSITIONS:
            raise ParameterError(
                f"block_size must be in [2, {MAX_POSITIONS}], got {self.block_size}"
            )

    @property
    def group_size(self) -> int:
        """Bytes consumed per row of blocks across all fragments."""
        return self.k * self.block_size


@dataclass(frozen=True)
class Fragment:
    """One of the k outputs: a permutation share plus a column of data shares.

    ``shares`` may be a strided view (encode_data returns column blocks of
    one buffer), so take its bytes with ``shares.tobytes()``.  A fragment of
    one chunk of a payload's share rows (``encode_data``'s chunks) holds its
    rows from ``first_row`` only, and the whole payload's length.
    """

    index: int
    params: CodecParams
    permutation_share: PermutationShare
    shares: np.ndarray  # (num_shares, block_size) uint8
    payload_length: int
    first_row: int = 0

    def __post_init__(self) -> None:
        p = self.params
        if self.first_row < 0:
            raise ParameterError(f"first share row {self.first_row} is negative")
        if not 0 <= self.index < p.k:
            raise ParameterError(f"fragment index {self.index} out of range [0, {p.k})")
        ps = self.permutation_share
        if len(ps) != p.block_size:
            raise ParameterError("permutation share length differs from block size")
        if ps.array_index != self.index // p.c or ps.share_index != self.index % p.c:
            raise ParameterError(
                "permutation share indices do not match the fragment index"
            )
        if self.shares.ndim != 2 or self.shares.shape[1] != p.block_size:
            raise ParameterError(f"share array has wrong shape {self.shares.shape}")
        if self.shares.dtype != np.uint8:
            raise ParameterError("shares must be uint8")
        self.shares.setflags(write=False)

    @property
    def num_shares(self) -> int:
        return self.shares.shape[0]


def pick_x(i: int) -> int:
    """Deterministic evaluation point for block row i, always in [2, 255]."""
    return 2 + (i % _X_PERIOD)


def padded_length(data_length: int, params: CodecParams) -> int:
    """Length after zero-padding up to a multiple of k * block_size."""
    group = params.group_size
    return ((data_length + group - 1) // group) * group


def encode_data(data: bytes, params: CodecParams, rng: random.Random,
                after: Sequence[Fragment] = (),
                payload_length: int | None = None) -> tuple[Fragment, ...]:
    """Transform data into the k fragments, in index order; all k are needed to get it back.

    A payload may also be encoded a chunk of share rows at a time, every
    chunk but the last a whole number of 254-row batches (encode_chunks).
    The first chunk takes the whole ``payload_length``.  Each next chunk
    continues the fragments of the chunk before it, given as ``after``, of
    which only the permutation shares and the last share row are read, as
    decode_data decodes a range of rows from the row before it; ``rng`` is
    not drawn from.  A chunk's fragments hold its own share rows, from
    ``first_row``, and the whole payload's length; the rows of all chunks,
    joined, are those of the fragments of the whole payload.
    """
    if len(data) == 0:
        raise ParameterError("nothing to fragment")
    m = params.group_size
    if after:
        check_fragments(after)
        after = sorted(after, key=lambda f: f.index)
        if after[0].params != params:
            raise ParameterError("a chunk's parameters differ from the fragments before it")
        start, payload_length = after[0].first_row + after[0].num_shares, after[0].payload_length
        pas = rebuild_permutations(after)
        ps = [f.permutation_share for f in after]
        state = np.concatenate([f.shares[-1] for f in after])
    else:
        start, state = 0, None
        payload_length = len(data) if payload_length is None else payload_length
        pas = generate_permutations(params.k, params.c, params.block_size, rng)
        # shares come back in share_index order, so share z of array r is fragment r*c + z's
        ps = [share for r, pa in enumerate(pas)
              for share in split_permutation(pa, params.c, rng, array_index=r)]
    end = start * m + len(data)
    if start % _X_PERIOD or end > payload_length or (
            end < payload_length and len(data) % (_X_PERIOD * m)):
        raise ParameterError(f"{len(data)} bytes from share row {start} are not a chunk of"
                             f" whole {_X_PERIOD}-row batches of a {payload_length}-byte payload")
    return _encode_with_permutations(data, params, pas, ps, start, state, payload_length)


def encode_chunks(params: CodecParams, payload_length: int) -> list[range]:
    """Consecutive ranges of a payload's share rows to encode one after another, cut
    as decode_segments cuts them: as many as hold gf256._CORES scan parts each, so
    each still encodes on every core, of equal whole 254-row batches but for the
    last, which also takes the rows after the last whole batch."""
    m = params.group_size
    nf = padded_length(payload_length, params) // m
    batches = payload_length // (_X_PERIOD * m)  # whole ones
    least = -(-gf256._CORES * gf256._PART_MIN_BYTES // (_X_PERIOD * m))
    count = max(1, batches // least)
    cuts = [batches * i // count * _X_PERIOD for i in range(count)] + [nf]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def decode_data(fragments: Iterable[Fragment], rows: range | None = None,
                permutations: list[PermutationArray] | None = None) -> memoryview:
    """Reconstruct the payload bytes of share rows ``rows`` (all rows by default)
    from all k fragments, as a read-only memoryview of bytes decoded in place
    into one numpy buffer.

    The first row of a range reads the share row before it, row 0 the
    permutation shares, so the pieces of consecutive ranges, joined, are the
    payload; the piece that ends on the last row is cut at the payload length.
    Raises ThresholdError when any fragment is missing, ParameterError on
    inconsistent fragment sets or a range outside the share rows, and
    IntegrityError when the permutation shares do not XOR back into valid
    permutations.  A caller that decodes a set range by range checks it and
    rebuilds its ``permutations`` once (rebuild_permutations) and passes them.
    """
    frags = tuple(fragments)
    if permutations is None:
        check_fragments(frags)
    params = frags[0].params
    k, m = params.k, params.group_size
    frags = tuple(sorted(frags, key=lambda f: f.index))
    payload_length = frags[0].payload_length

    nf = frags[0].num_shares
    expected = padded_length(payload_length, params) // m
    if nf != expected or frags[0].first_row:
        raise ParameterError(
            f"share count {nf} does not match payload length {payload_length}"
        )
    rows = range(nf) if rows is None else rows
    if rows.step != 1 or not 0 <= rows.start <= rows.stop <= nf:
        raise ParameterError(f"{rows} is not a range of the {nf} share rows")

    pas = rebuild_permutations(frags) if permutations is None else permutations
    out = np.empty(len(rows) * m, dtype=np.uint8)
    _decode_rows(frags, pas, out.reshape(len(rows), k, params.block_size), rows.start)
    out = out[: payload_length - rows.start * m]
    out.setflags(write=False)
    return memoryview(out)


def decode_segments(params: CodecParams, num_shares: int) -> list[range]:
    """Consecutive, equal ranges of the share rows, each long enough to decode on
    every core: at least gf256._CORES decode parts, or all rows as one range."""
    m = params.group_size
    least = -(-gf256._CORES * _decode_part_min(params) // m)
    count = max(1, num_shares // least)
    cuts = [num_shares * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def rebuild_permutations(frags: Sequence[Fragment]) -> list[PermutationArray]:
    """The k / c permutation arrays of a checked set of k fragments, each XORed back
    from the c shares its fragments carry; IntegrityError when one is no permutation."""
    params = frags[0].params
    c = params.c
    by_index = sorted(frags, key=lambda f: f.index)
    return [reconstruct_permutation([f.permutation_share for f in by_index[r * c : (r + 1) * c]], c)
            for r in range(params.k // c)]


def check_fragments(frags: Sequence[Fragment]) -> None:
    """Raise unless ``frags`` are the k fragments of one run, each once, in any order."""
    if not frags:
        raise ThresholdError("k-of-k threshold not met: no fragments", missing=())
    params = frags[0].params
    if any(f.params != params for f in frags):
        raise ParameterError("fragments carry different parameters")
    if any(f.payload_length != frags[0].payload_length for f in frags):
        raise ParameterError("fragments carry different payload lengths")
    if any(f.num_shares != frags[0].num_shares for f in frags):
        raise ParameterError("fragments carry different share counts")
    indices = sorted(f.index for f in frags)
    if len(set(indices)) != len(indices):
        raise ParameterError(f"duplicate fragment indices: {indices}")
    missing = sorted(set(range(params.k)) - set(indices))
    if missing:
        raise ThresholdError(
            f"k-of-k threshold not met: missing fragments {missing}", missing=missing
        )


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _flat_permutation_gather(pas: list[PermutationArray], params: CodecParams) -> np.ndarray:
    """Flat index PI with PI[j*bs + w] = j*bs + inverse(pa_j)[w]."""
    k, bs = params.k, params.block_size
    per_array = k // params.c
    inv = np.empty((k, bs), dtype=np.intp)
    for j in range(k):
        entries = np.frombuffer(pas[j % per_array].entries, dtype=np.uint8)
        inv[j] = np.argsort(entries)
    return (np.arange(k, dtype=np.intp)[:, None] * bs + inv).reshape(-1)


def _encode_with_permutations(
    data: bytes,
    params: CodecParams,
    pas: list[PermutationArray],
    ps: list[PermutationShare],
    start: int = 0,
    state: np.ndarray | None = None,
    payload_length: int | None = None,
) -> tuple[Fragment, ...]:
    """Encode with explicit permutations; the seam tests drive directly.  ``data``
    are the payload's bytes from share row ``start``, a multiple of 254, and
    ``state`` the share row before it (by default the permutation shares)."""
    k, bs, m = params.k, params.block_size, params.group_size
    nf = padded_length(len(data), params) // m
    pi = _flat_permutation_gather(pas, params)
    payload = np.frombuffer(data, dtype=np.uint8)
    y = np.empty((nf, m), dtype=np.uint8)  # encoded in place
    if state is None:  # the row before the first: the permutation shares
        state = np.frombuffer(b"".join(p.entries for p in ps), dtype=np.uint8)
    # D_t: the byte at position v of block j reads fragment (j+t) % k at position v
    parent_idx = np.stack([(pi + t * bs) % m for t in range(1, params.c)])

    # the scan runs over whole batches of payload rows, the rest as one range
    body = 0
    if params.c == 2 and nf >= _SCAN_MIN_ROWS:
        body = len(data) // (_X_PERIOD * m) * _X_PERIOD
        _encode_rows_scan(payload[: body * m], pi, y[:body], state, parent_idx[0])
        state = y[body - 1]
    _fragment_rows(payload[body * m :], pi, y[body:])
    _sweep(y[body:], state, parent_idx, start + body)

    length = len(data) if payload_length is None else payload_length
    return tuple(Fragment(j, params, ps[j], y[:, j * bs : (j + 1) * bs], length, start)
                 for j in range(k))


def _fragment_rows(data: np.ndarray, pi: np.ndarray, y: np.ndarray) -> None:
    """Fill the rows y[r, q] = row_r[pi[q]] of the payload, the last row zero-padded.

    The gathers run over chunks of about 1 MiB of rows, one take per chunk
    straight from the payload, so y is the only copy of it.
    """
    nf, m = y.shape
    full = len(data) // m
    rows = data[: full * m].reshape(full, m)
    chunk = max(1, (1 << 20) // m)

    def chunks(lo: int, hi: int) -> None:
        for r0 in range(lo * chunk, min(hi * chunk, full), chunk):
            r1 = min(r0 + chunk, full)
            rows[r0:r1].take(pi, axis=1, out=y[r0:r1], mode="clip")

    _in_parts(-(-full // chunk), y.nbytes, chunks)
    if full < nf:
        last = np.zeros(m, dtype=np.uint8)
        last[: len(data) - full * m] = data[full * m :]
        last.take(pi, out=y[full], mode="clip")


def _decode_chunk(params: CodecParams) -> int:
    """Share rows per numpy call of the decode: about 256 KiB of output."""
    return max(1, (1 << 18) // params.group_size)


def _decode_part_min(params: CodecParams) -> int:
    """The fewest output bytes a decode part covers: _DECODE_PART_MIN_BYTES, and
    five times the part's scratch (rows, term and the intp lut: 10 bytes per
    byte of a chunk's share rows of one fragment)."""
    return max(_DECODE_PART_MIN_BYTES, 5 * 10 * _decode_chunk(params) * params.block_size)


def _decode_rows(frags: tuple[Fragment, ...], pas: list[PermutationArray], out: np.ndarray,
                 start: int) -> None:
    """Write the (n, k, bs) block rows of share rows start .. start + n - 1:
    out[r - start, j] = s_j[r, pa_j] ^ sum_t x_r^t * s_{j+t}[r - 1].

    The row before the first is each fragment's permutation share.  Each
    chunk of rows takes one gather per fragment from its share view, and one
    lookup per neighbor term into the flat product table, indexed
    x_r^t * 256 + s, since x changes from row to row.
    """
    n, k, bs = out.shape
    params = frags[0].params
    c = params.c
    shares = [f.shares for f in frags]
    entries = [np.frombuffer(f.permutation_share.entries, dtype=np.uint8) for f in frags]
    perms = [np.frombuffer(pas[j % (k // c)].entries, dtype=np.uint8) for j in range(k)]
    chunk = _decode_chunk(params)
    # scales[t - 1][r % 254 + i] = 256 * x_{r+i}^t, for any chunk start r
    scales = [
        np.resize(EXP_TABLE[_X_LOGS * t % 255].astype(np.uint16) << 8, _X_PERIOD + chunk)
        for t in range(1, c)
    ]
    products = MUL_TABLE.reshape(-1)

    def chunks(lo: int, hi: int) -> None:
        rows = np.empty((chunk, bs), dtype=np.uint8)
        term = np.empty((chunk, bs), dtype=np.uint8)
        lut = np.empty((chunk, bs), dtype=np.intp)  # the lookup's own index type
        for r0 in range(start + lo * chunk, start + min(hi * chunk, n), chunk):
            r1 = min(r0 + chunk, start + n)
            a = max(r0, 1)  # the first row whose previous row is a share row
            nr, na = r1 - r0, r1 - a
            for j in range(k):
                shares[j][r0:r1].take(perms[j], axis=1, out=rows[:nr], mode="clip")
                for t, scale in enumerate(scales, 1):
                    parent = (j + t) % k
                    if r0 == 0:
                        rows[0] ^= MUL_TABLE[scale[0] >> 8].take(entries[parent])
                    np.add(scale[a % _X_PERIOD :][:na, None], shares[parent][a - 1 : r1 - 1],
                           out=lut[:na])
                    products.take(lut[:na], out=term[:na], mode="clip")
                    rows[a - r0 : nr] ^= term[:na]
                out[r0 - start : r1 - start, j] = rows[:nr]

    _run_parts(-(-n // chunk), out.nbytes // _decode_part_min(params), chunks)


def _sweep(rows: np.ndarray, state: np.ndarray, parent_idx: np.ndarray, start: int) -> None:
    """Run the recurrence in place over the (n, m) rows, from the state row before them.

    Row i becomes u = rows[i] ^ sum_t x^t * state[D_t], with
    x = pick_x(start + i + 1), and u is the state of the next row.  Each row
    makes c + 1 numpy calls: one lookup multiplies the state by x, x^2, ..,
    x^(c-1) at once, one flat gather picks every term, and c - 1 XORs sum
    them.
    """
    m = rows.shape[1]
    terms = len(parent_idx)
    # tables[t][s] multiplies by pick_x(t + 1) ** (s + 1)
    tables = list(MUL_TABLE[EXP_TABLE[_X_LOGS[:, None] * np.arange(1, terms + 1) % 255]])
    # term s at position q reads scaled[s, D_s[q]]
    flat_idx = (np.arange(terms, dtype=np.intp)[:, None] * m + parent_idx).reshape(-1)
    scaled = np.empty((terms, m), dtype=np.uint8)
    gathered = np.empty((terms, m), dtype=np.uint8)
    flat_scaled, flat_gathered = scaled.reshape(-1), gathered.reshape(-1)
    first, *rest = gathered
    for i, row in enumerate(rows, start):
        tables[i % _X_PERIOD].take(state, axis=1, out=scaled, mode="clip")
        flat_scaled.take(flat_idx, out=flat_gathered, mode="clip")
        np.bitwise_xor(row, first, out=row)
        for term in rest:
            np.bitwise_xor(row, term, out=row)
        state = row


def _encode_rows_scan(data: np.ndarray, pi: np.ndarray, rows: np.ndarray,
                      initial_state: np.ndarray, didx: np.ndarray) -> None:
    """Blocked scan for the c == 2 recurrence u_r = y_r ^ x_r * u_{r-1}[D]: fill the
    (nf, m) ``rows`` with the encoded rows of the payload ``data``, nf a multiple of 254.

    Rows are grouped into batches of one full x period so every batch sees
    the same x sequence and batches can advance in lockstep.  Row i of a
    batch is held in the drifted frame Q_i = D^-(i+1), in which the
    recurrence is elementwise: u~_i = y~_i ^ x_i * u~_{i-1}, where
    u~_i = u_i[Q_i] and y~_i = row_i[pi[Q_i]] is gathered straight from the
    payload.  The sweep runs it once, in place, from a zero entry state in
    every batch, leaving u0~_i.  The mixing is linear over the field, so
    u~_i = u0~_i ^ Λ_i * E, with E the batch's true entry state and Λ_i the
    product of x_0 .. x_i.  A short serial pass propagates E from batch to
    batch, E_{b+1} = (u0~_253 ^ Λ_253 * E_b)[D^254]; the correction then
    writes each row (u0~_i ^ Λ_i * E_b)[D^(i+1)] back to the fragment frame.
    It takes Λ_i * E for _LAMBDA_ROWS rows at once from one 254 x 256
    product table, so each byte makes one data-dependent lookup in all, and
    no corrected row depends on the one before it.  The sweep and the
    correction run over a contiguous range of batches, one range per
    thread, so throughput does not depend on k or the block size.  Each
    numpy call of a part may hand the interpreter lock to another part, so
    a part advances Q_i and D^(i+1) a block of rows per take, and corrects
    _LAMBDA_ROWS rows of its batches per XOR and per write-back take.
    """
    nf, m = rows.shape
    b = _X_PERIOD
    nb = nf // b
    src = data.reshape(nb, b * m)
    rows3, flat = rows.reshape(nb, b, m), rows.reshape(nb, b * m)
    # the drifted rows are gathered span rows per take
    span = max(1, min(b, _GATHER_INDICES // m))
    # tables[i] multiplies by pick_x(i + 1), the x of row i of a batch, and
    # lambdas[i] by Λ_i, the product of the x of rows 0..i
    tables = MUL_TABLE[EXP_TABLE[_X_LOGS]]
    lambdas = MUL_TABLE[EXP_TABLE[np.cumsum(_X_LOGS) % 255]]
    # pi[Q_i] and D^(i+1) advance a block of rows per take: row r of a block is the
    # row before the block taken at ahead[r] = D^-(r+1) (gather), or the block's
    # first row taken at behind[r] = D^r (write-back)
    dinv = np.argsort(didx)
    ahead = np.empty((span, m), dtype=np.intp)  # D^-1 .. D^-span
    behind = np.empty((_LAMBDA_ROWS + 1, m), dtype=np.intp)  # D^0 .. D^_LAMBDA_ROWS
    ahead[0], behind[0] = dinv, np.arange(m)
    for r in range(1, span):
        ahead[r] = ahead[r - 1].take(dinv)
    for r in range(1, _LAMBDA_ROWS + 1):
        behind[r] = behind[r - 1].take(didx)
    # the offset of each row of a gather block, and of each row of a correction take
    row_at = np.arange(0, b * m, m)[:, None]
    cur = np.empty((nb, m), dtype=np.uint8)

    def sweep1(lo: int, hi: int) -> None:
        """Gather each batch's drifted rows and run them from a zero entry state in
        place; leave each batch's last state in cur."""
        pick = np.empty((span, m), dtype=np.intp)  # i * m + pi[Q_i] for span rows i
        gidx = pi  # pi[Q_(i0 - 1)]
        for i0 in range(0, b, span):
            n = min(span, b - i0)
            gidx.take(ahead[:n], out=pick[:n])
            gidx = pick[n - 1].copy()
            pick[:n] += row_at[i0 : i0 + n]
            for beta in range(lo, hi):
                src[beta].take(pick[:n].reshape(-1), out=flat[beta, i0 * m : (i0 + n) * m],
                               mode="clip")
        scratch = np.empty((hi - lo, m), dtype=np.uint8)
        for i in range(1, b):
            tables[i].take(rows3[lo:hi, i - 1], out=scratch, mode="clip")
            np.bitwise_xor(rows3[lo:hi, i], scratch, out=rows3[lo:hi, i])
        cur[lo:hi] = rows3[lo:hi, b - 1]

    def correct(lo: int, hi: int) -> None:
        """Add Λ_i times each batch's entry state in cur to its rows, writing the fragment
        frame, _LAMBDA_ROWS rows of every batch at a time."""
        fix = np.empty((_LAMBDA_ROWS, hi - lo, m), dtype=np.uint8)
        scratch = np.empty((hi - lo, _LAMBDA_ROWS, m), dtype=np.uint8)
        widx = np.empty((_LAMBDA_ROWS + 1, m), dtype=np.intp)  # D^(i+1) for each row, then the next
        widx[_LAMBDA_ROWS] = didx
        for i0 in range(0, b, _LAMBDA_ROWS):
            n = min(_LAMBDA_ROWS, b - i0)
            widx[_LAMBDA_ROWS].take(behind, out=widx)
            widx[:n] += row_at[:n]
            lambdas[i0 : i0 + n].take(cur[lo:hi], axis=1, out=fix[:n], mode="clip")
            np.bitwise_xor(rows3[lo:hi, i0 : i0 + n], fix[:n].transpose(1, 0, 2),
                           out=scratch[:, :n])
            scratch.reshape(hi - lo, -1)[:, : n * m].take(
                widx[:n].reshape(-1), axis=1, mode="clip",
                out=rows3[lo:hi, i0 : i0 + n].reshape(hi - lo, n * m))

    _in_parts(nb, rows.nbytes, sweep1)

    # boundary pass: true state entering each batch
    dpow = didx  # D^254
    for _ in range(b - 1):
        dpow = dpow.take(didx)
    scale = lambdas[b - 1]  # times the product of the b x values
    state = initial_state
    for beta in range(nb):  # cur[beta] becomes the entry state of batch beta
        state, cur[beta] = (cur[beta] ^ scale.take(state)).take(dpow), state

    _in_parts(nb, rows.nbytes, correct)
