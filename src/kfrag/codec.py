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

Decoding runs in the data frame, with one gather per fragment from its
shares straight into the output rows, then adds the neighbor terms, which
have no cross-row dependency, over many rows per numpy call.

The scan's sweep and correction and the gathers of both directions split
into parts, one thread per usable core; the decode bounds its part count by
the scratch each part holds, and the one-range sweep runs on the caller's
thread.  The bytes do not depend on the number of parts.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ThresholdError
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
# Rows per take of the scan's correction Λ_i * E, which casts the entry states
# to intp once per take.  32 MiB (4,2,250), best of 5 in one process on a
# 2-core Xeon, ms of the correction at 1/2/4/8/16 rows: one core
# 54.1/49.9/48.3/46.4/47.0, two cores 29.7/27.8/25.2/24.8/25.9.  Each row of a
# take adds one row of every batch to its scratch, so 4 rows keep it at 4/254
# of the payload.
_LAMBDA_ROWS = 4


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
    one buffer), so take its bytes with ``shares.tobytes()``.
    """

    index: int
    params: CodecParams
    permutation_share: PermutationShare
    shares: np.ndarray  # (num_shares, block_size) uint8
    payload_length: int

    def __post_init__(self) -> None:
        p = self.params
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


def encode_data(data: bytes, params: CodecParams, rng: random.Random) -> tuple[Fragment, ...]:
    """Transform data into the k fragments, in index order; all k are needed to get it back."""
    if len(data) == 0:
        raise ParameterError("nothing to fragment")
    pas = generate_permutations(params.k, params.c, params.block_size, rng)
    # shares come back in share_index order, so share z of array r is fragment r*c + z's
    ps = [share for r, pa in enumerate(pas)
          for share in split_permutation(pa, params.c, rng, array_index=r)]
    return _encode_with_permutations(data, params, pas, ps)


def decode_data(fragments: Iterable[Fragment]) -> memoryview:
    """Reconstruct the original payload from all k fragments, as a read-only
    memoryview of bytes decoded in place into one numpy buffer.

    Raises ThresholdError when any fragment is missing, ParameterError on
    inconsistent fragment sets, and IntegrityError when the permutation
    shares do not XOR back into valid permutations.
    """
    frags = tuple(fragments)
    check_fragments(frags)
    params = frags[0].params
    k, c = params.k, params.c
    frags = tuple(sorted(frags, key=lambda f: f.index))
    payload_length = frags[0].payload_length

    nf = frags[0].num_shares
    expected = padded_length(payload_length, params) // params.group_size
    if nf != expected:
        raise ParameterError(
            f"share count {nf} does not match payload length {payload_length}"
        )

    pas = []
    for r in range(k // c):
        group = [frags[r * c + z].permutation_share for z in range(c)]
        pas.append(reconstruct_permutation(group, c))

    out = np.empty(nf * params.group_size, dtype=np.uint8)
    _decode_rows(frags, pas, out.reshape(nf, k, -1))
    out = out[:payload_length]
    out.setflags(write=False)
    return memoryview(out)


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
) -> tuple[Fragment, ...]:
    """Encode with explicit permutations; the seam tests drive directly."""
    k, bs, m = params.k, params.block_size, params.group_size
    nf = padded_length(len(data), params) // m
    pi = _flat_permutation_gather(pas, params)
    payload = np.frombuffer(data, dtype=np.uint8)
    y = np.empty((nf, m), dtype=np.uint8)  # encoded in place
    # the row before the first: the permutation shares
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
    _sweep(y[body:], state, parent_idx, body)

    return tuple(Fragment(j, params, ps[j], y[:, j * bs : (j + 1) * bs], len(data))
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


def _decode_rows(frags: tuple[Fragment, ...], pas: list[PermutationArray], out: np.ndarray) -> None:
    """Write the (nf, k, bs) block rows: out[r, j] = s_j[r, pa_j] ^ sum_t x_r^t * s_{j+t}[r - 1].

    The row before the first is each fragment's permutation share.  Each
    chunk of rows takes one gather per fragment from its share view, and one
    lookup per neighbor term into the flat product table, indexed
    x_r^t * 256 + s, since x changes from row to row.
    """
    nf, k, bs = out.shape
    c = frags[0].params.c
    shares = [f.shares for f in frags]
    entries = [np.frombuffer(f.permutation_share.entries, dtype=np.uint8) for f in frags]
    perms = [np.frombuffer(pas[j % (k // c)].entries, dtype=np.uint8) for j in range(k)]
    chunk = max(1, (1 << 18) // (k * bs))
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
        for r0 in range(lo * chunk, min(hi * chunk, nf), chunk):
            r1 = min(r0 + chunk, nf)
            a = max(r0, 1)  # the first row whose previous row is a share row
            n, na = r1 - r0, r1 - a
            for j in range(k):
                shares[j][r0:r1].take(perms[j], axis=1, out=rows[:n], mode="clip")
                for t, scale in enumerate(scales, 1):
                    parent = (j + t) % k
                    if r0 == 0:
                        rows[0] ^= MUL_TABLE[scale[0] >> 8].take(entries[parent])
                    np.add(scale[a % _X_PERIOD :][:na, None], shares[parent][a - 1 : r1 - 1],
                           out=lut[:na])
                    products.take(lut[:na], out=term[:na], mode="clip")
                    rows[a - r0 : n] ^= term[:na]
                out[r0:r1, j] = rows[:n]

    # rows, term and the intp lut: 10 bytes of scratch per part and byte of a chunk's share rows
    part_min = max(_DECODE_PART_MIN_BYTES, 5 * 10 * chunk * bs)
    _run_parts(-(-nf // chunk), out.nbytes // part_min, chunks)


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
    no corrected row depends on the one before it.  Q_i and D^(i+1) advance
    one m-element take per step.  The sweep and the correction run over a
    contiguous range of batches, one range per thread, so throughput does
    not depend on k or the block size.
    """
    nf, m = rows.shape
    b = _X_PERIOD
    nb = nf // b
    src = data.reshape(nb, b * m)
    rows3, flat = rows.reshape(nb, b, m), rows.reshape(nb, b * m)
    dinv = np.argsort(didx)
    # the drifted rows are gathered batch by batch, span rows per take
    span = max(1, min(b, _GATHER_INDICES // m))
    # tables[i] multiplies by pick_x(i + 1), the x of row i of a batch, and
    # lambdas[i] by Λ_i, the product of the x of rows 0..i
    tables = MUL_TABLE[EXP_TABLE[_X_LOGS]]
    lambdas = MUL_TABLE[EXP_TABLE[np.cumsum(_X_LOGS) % 255]]
    cur = np.empty((nb, m), dtype=np.uint8)

    def sweep1(lo: int, hi: int) -> None:
        """Gather each batch's drifted rows and run them from a zero entry state in
        place; leave each batch's last state in cur."""
        pick = np.empty(span * m, dtype=np.intp)  # i * m + pi[Q_i] for span rows i
        gidx = pi  # pi[Q_i]
        for i0 in range(0, b, span):
            i1 = min(i0 + span, b)
            for i in range(i0, i1):
                gidx = gidx.take(dinv)
                np.add(gidx, i * m, out=pick[(i - i0) * m : (i - i0 + 1) * m])
            for beta in range(lo, hi):
                src[beta].take(pick[: (i1 - i0) * m], out=flat[beta, i0 * m : i1 * m], mode="clip")
        scratch = np.empty((hi - lo, m), dtype=np.uint8)
        for i in range(1, b):
            tables[i].take(rows3[lo:hi, i - 1], out=scratch, mode="clip")
            np.bitwise_xor(rows3[lo:hi, i], scratch, out=rows3[lo:hi, i])
        cur[lo:hi] = rows3[lo:hi, b - 1]

    def correct(lo: int, hi: int) -> None:
        """Add Λ_i times each batch's entry state in cur to its rows, writing the fragment frame."""
        fix = np.empty((_LAMBDA_ROWS, hi - lo, m), dtype=np.uint8)
        scratch = np.empty((hi - lo, m), dtype=np.uint8)
        widx = didx  # D^(i+1)
        for i0 in range(0, b, _LAMBDA_ROWS):
            i1 = min(i0 + _LAMBDA_ROWS, b)
            lambdas[i0:i1].take(cur[lo:hi], axis=1, out=fix[: i1 - i0], mode="clip")
            for i in range(i0, i1):
                np.bitwise_xor(rows3[lo:hi, i], fix[i - i0], out=scratch)
                scratch.take(widx, axis=1, out=rows3[lo:hi, i], mode="clip")
                widx = widx.take(didx)

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
