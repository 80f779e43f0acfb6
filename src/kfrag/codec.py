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
_sweep, computes every encoded row, advancing any number of row ranges in
lockstep with c + 1 numpy calls per row whatever k and the block size.  Two
drivers run it: one range of every row for any c, and for c == 2 a blocked
scan that exploits the linearity of the recurrence to advance batches of
rows at once; only its boundary pass is specific to c == 2.  Both produce
bit-identical fragments.  Decoding runs in the data frame, with one gather
per fragment from its shares straight into the output rows, then adds the
neighbor terms, which have no cross-row dependency, over many rows per
numpy call.

The scan's two sweeps and the gathers of both directions split into parts
through gf256._in_parts, one thread per usable core; the one-range driver
runs on the caller's thread.  The bytes do not depend on the number of
parts.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ThresholdError
from .gf256 import EXP_TABLE, LOG_TABLE, MUL_TABLE, _in_parts
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
    y = _fragment_rows(np.frombuffer(data, dtype=np.uint8), pi, nf)  # encoded in place
    # the row before the first: the permutation shares
    state = np.frombuffer(b"".join(p.entries for p in ps), dtype=np.uint8)
    # D_t: the byte at position v of block j reads fragment (j+t) % k at position v
    parent_idx = np.stack([(pi + t * bs) % m for t in range(1, params.c)])

    if params.c == 2 and nf >= _SCAN_MIN_ROWS:
        _encode_rows_scan(y, state, parent_idx)
    else:
        _sweep(y[None], state[None], parent_idx, 0)

    return tuple(Fragment(j, params, ps[j], y[:, j * bs : (j + 1) * bs], len(data))
                 for j in range(k))


def _fragment_rows(data: np.ndarray, pi: np.ndarray, nf: int) -> np.ndarray:
    """The (nf, m) rows y[r, q] = row_r[pi[q]] of the payload, the last row zero-padded.

    The gathers run over chunks of about 1 MiB of rows, one take per chunk
    straight from the payload, so y is the only copy of it.
    """
    m = len(pi)
    y = np.empty((nf, m), dtype=np.uint8)
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
    return y


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
        lut = np.empty((chunk, bs), dtype=np.uint16)
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

    _in_parts(-(-nf // chunk), out.nbytes, chunks)


def _sweep(rows: np.ndarray, state: np.ndarray, parent_idx: np.ndarray, start: int,
           out: np.ndarray | None = None) -> None:
    """Advance nb batches of the recurrence in lockstep over a (nb, n, m) view.

    Row i of every batch becomes u = rows[:, i] ^ sum_t x^t * state[:, D_t],
    with x = pick_x(start + i + 1), and u is the state of the next row.  The
    state enters as (nb, m).  Without ``out`` each row is overwritten with
    its u; with ``out`` the rows stay untouched and ``out`` ends holding the
    last u.  Each row makes c + 1 numpy calls: one lookup multiplies the
    states by x, x^2, .., x^(c-1) at once, one flat gather picks every term
    of every batch, and c - 1 XORs sum them.
    """
    nb, _, m = rows.shape
    terms = len(parent_idx)
    # tables[t][s] multiplies by pick_x(t + 1) ** (s + 1)
    tables = list(MUL_TABLE[EXP_TABLE[_X_LOGS[:, None] * np.arange(1, terms + 1) % 255]])
    # term s of batch beta at position q reads scaled[s, beta, D_s[q]]
    flat_idx = (np.arange(terms * nb, dtype=np.intp).reshape(terms, nb, 1) * m
                + parent_idx[:, None, :]).reshape(-1)
    scaled = np.empty((terms, nb, m), dtype=np.uint8)
    gathered = np.empty((terms, nb, m), dtype=np.uint8)
    flat_scaled, flat_gathered = scaled.reshape(-1), gathered.reshape(-1)
    first, *rest = gathered
    for i, row in enumerate(rows.swapaxes(0, 1), start):
        # the lookup reads the state before the XORs write, so out may alias it
        tables[i % _X_PERIOD].take(state, axis=1, out=scaled, mode="clip")
        flat_scaled.take(flat_idx, out=flat_gathered, mode="clip")
        state = row if out is None else out
        np.bitwise_xor(row, first, out=state)
        for term in rest:
            np.bitwise_xor(state, term, out=state)


def _encode_rows_scan(rows: np.ndarray, initial_state: np.ndarray, parent_idx: np.ndarray) -> None:
    """Blocked scan for the c == 2 recurrence u_r = rows[r] ^ x_r * u_{r-1}[D], in place.

    Rows are grouped into batches of one full x period so every batch sees
    the same x sequence and batches can advance in lockstep.  A first sweep
    computes the batch-local recurrence from a zero entry state (the mixing
    is linear over the field, so states superpose); a short serial pass then
    propagates the true state across batch boundaries; a second sweep replays
    the recurrence from the true entry states and overwrites every row.
    Both sweeps run through _sweep over a contiguous range of batches, one
    range per thread, so throughput does not depend on k or the block size.
    """
    nf, m = rows.shape
    b = _X_PERIOD
    nb = nf // b
    body = nb * b
    rows3 = rows[:body].reshape(nb, b, m)
    cur = np.empty((nb, m), dtype=np.uint8)

    # sweep 1: each batch's last state from a zero entry state, whose first u is its first row
    _in_parts(nb, rows.nbytes,
              lambda lo, hi: _sweep(rows3[lo:hi, 1:], rows3[lo:hi, 0], parent_idx, 1, out=cur[lo:hi]))

    # boundary pass: true state entering each batch
    didx = parent_idx[0]
    dpow = didx  # D composed with itself b times
    for _ in range(b - 1):
        dpow = dpow.take(didx)
    scale = MUL_TABLE[EXP_TABLE[_X_LOGS.sum() % 255]]  # times the product of the b x values
    state = initial_state
    for beta in range(nb):  # cur[beta] becomes the entry state of batch beta
        state, cur[beta] = cur[beta] ^ scale.take(state.take(dpow)), state

    # sweep 2: replay from the true entry states, overwriting every row
    _in_parts(nb, rows.nbytes, lambda lo, hi: _sweep(rows3[lo:hi], cur[lo:hi], parent_idx, 0))

    _sweep(rows[None, body:], rows[None, body - 1], parent_idx, body)
