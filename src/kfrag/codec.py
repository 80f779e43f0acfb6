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

Two equivalent encode implementations exist: a row-serial sweep for any c,
and a blocked scan for c == 2 that exploits the linearity of the row
recurrence to run in large batches regardless of k and the block size.  Both
produce bit-identical fragments.  The serial sweep makes c + 1 numpy calls
per row, whatever k and the block size: one table lookup scales the previous
row by every power of x it needs, one flat gather picks the c - 1 terms, and
c - 1 XORs add them.  Decoding has no cross-row dependency and runs over all
rows at once: one inverse-permutation gather, then for each of the 254
evaluation points one multiply-by-constant table lookup over every row that
uses it.

The row gathers, the scan's two sweeps and the decode phases split into
parts through gf256._in_parts, one thread per usable core; the serial sweep
runs row by row on the caller's thread.  The bytes do not depend on the
number of parts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ThresholdError
from .gf256 import EXP_TABLE, LOG_TABLE, MUL_TABLE, _in_parts, mul
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
    """One of the k outputs: a permutation share plus a column of data shares."""

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


@dataclass(frozen=True)
class FragmentSet:
    """The complete k fragments of one fragmentation run."""

    fragments: tuple[Fragment, ...]

    def __post_init__(self) -> None:
        _check_fragments(self.fragments)

    @property
    def params(self) -> CodecParams:
        return self.fragments[0].params

    @property
    def payload_length(self) -> int:
        return self.fragments[0].payload_length

    def __iter__(self):
        return iter(self.fragments)

    def __len__(self) -> int:
        return len(self.fragments)


def pick_x(i: int) -> int:
    """Deterministic evaluation point for block row i, always in [2, 255]."""
    return 2 + (i % _X_PERIOD)


def padded_length(data_length: int, params: CodecParams) -> int:
    """Length after zero-padding up to a multiple of k * block_size."""
    group = params.group_size
    return ((data_length + group - 1) // group) * group


def encode_data(data: bytes, params: CodecParams, rng: random.Random) -> FragmentSet:
    """Transform data into k fragments; all k are needed to get it back."""
    if len(data) == 0:
        raise ParameterError("nothing to fragment")
    pas = generate_permutations(params.k, params.c, params.block_size, rng)
    ps: list[PermutationShare | None] = [None] * params.k
    for r, pa in enumerate(pas):
        for share in split_permutation(pa, params.c, rng, array_index=r):
            ps[r * params.c + share.share_index] = share
    return _encode_with_permutations(data, params, pas, ps)  # type: ignore[arg-type]


def decode_data(fragments: FragmentSet | list[Fragment] | tuple[Fragment, ...]) -> bytes:
    """Reconstruct the original payload from all k fragments.

    Raises ThresholdError when any fragment is missing, ParameterError on
    inconsistent fragment sets, and IntegrityError when the permutation
    shares do not XOR back into valid permutations.
    """
    frags = tuple(fragments)
    _check_fragments(frags)
    params = frags[0].params
    k, c, bs = params.k, params.c, params.block_size
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

    # encoded rows of m = k*bs bytes: row 0 the permutation shares, rows 1.. the data
    m = params.group_size
    rows = np.empty((nf + 1, k, bs), dtype=np.uint8)
    for j, frag in enumerate(frags):
        rows[0, j] = np.frombuffer(frag.permutation_share.entries, dtype=np.uint8)
        rows[1:, j] = frag.shares
    rows = rows.reshape(nf + 1, m)

    # m_i = s_i[pa] ^ sum_t x^t * s_{i-1} rotated left by t fragments, so that
    # fragment j reads fragment (j+t) % k; rows that share x share one lookup
    inverse = np.argsort(_flat_permutation_gather(pas, params))
    out = _gather_rows(rows[1:], inverse)

    def phases(lo: int, hi: int) -> None:
        # phase p writes only rows p, p + 254, ...: parts share no output row
        for phase in range(lo, hi):
            x = pick_x(phase + 1)
            prev = rows[phase:nf:_X_PERIOD]
            dst = out[phase::_X_PERIOD]
            xt = 1
            for t in range(1, c):
                xt = mul(xt, x)
                term, cut = MUL_TABLE[xt].take(prev, mode="clip"), t * bs
                dst[:, : m - cut] ^= term[:, cut:]
                dst[:, m - cut :] ^= term[:, :cut]

    _in_parts(min(nf, _X_PERIOD), out.nbytes, phases)
    return out.reshape(-1)[:payload_length].tobytes()


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _check_fragments(frags: tuple[Fragment, ...]) -> None:
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


def _flat_permutation_gather(pas: list[PermutationArray], params: CodecParams) -> np.ndarray:
    """Flat index PI with PI[j*bs + w] = j*bs + inverse(pa_j)[w]."""
    k, bs = params.k, params.block_size
    per_array = k // params.c
    inv = np.empty((k, bs), dtype=np.intp)
    for j in range(k):
        entries = np.frombuffer(pas[j % per_array].entries, dtype=np.uint8)
        inv[j] = np.argsort(entries)
    return (np.arange(k, dtype=np.intp)[:, None] * bs + inv).reshape(-1)


def _parent_gathers(params: CodecParams, pi: np.ndarray) -> list[np.ndarray]:
    """Composed indices C_t with s_i = m'_i ^ sum_t x^t * s_{i-1}[C_t]."""
    k, bs = params.k, params.block_size
    v = np.arange(bs, dtype=np.intp)[None, :]
    out = []
    for t in range(1, params.c):
        pt = (((np.arange(k, dtype=np.intp)[:, None] + t) % k) * bs + v).reshape(-1)
        out.append(pt.take(pi))
    return out


def _encode_with_permutations(
    data: bytes,
    params: CodecParams,
    pas: list[PermutationArray],
    ps: list[PermutationShare],
) -> FragmentSet:
    """Encode with explicit permutations; the seam tests drive directly."""
    k, bs = params.k, params.block_size
    padded = np.zeros(padded_length(len(data), params), dtype=np.uint8)
    padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    m = params.group_size
    nf = padded.size // m
    rows = padded.reshape(nf, m)
    ps_row = np.frombuffer(b"".join(p.entries for p in ps), dtype=np.uint8)

    pi = _flat_permutation_gather(pas, params)
    parent_idx = _parent_gathers(params, pi)
    pre = _gather_rows(rows, pi)  # m'_i: block rows pre-permuted into the output frame
    out = np.empty((nf, m), dtype=np.uint8)

    if params.c == 2 and nf >= _SCAN_MIN_ROWS:
        _encode_rows_scan(pre, ps_row, parent_idx[0], out)
    else:
        _encode_rows_serial(pre, ps_row, parent_idx, out, start_row=0)

    shaped = out.reshape(nf, k, bs)
    frags = tuple(
        Fragment(
            index=j,
            params=params,
            permutation_share=ps[j],
            shares=np.ascontiguousarray(shaped[:, j, :]),
            payload_length=len(data),
        )
        for j in range(k)
    )
    return FragmentSet(frags)


def _gather_rows(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Apply one in-row gather to every row, in flat chunks.

    Equivalent to rows[:, idx] but runs as flat takes with a reusable chunk
    index, which is both faster and insensitive to the row width.
    """
    nf, m = rows.shape
    out = np.empty_like(rows)
    chunk = max(1, (1 << 18) // m)
    base = (np.arange(chunk, dtype=np.intp)[:, None] * m + idx).reshape(-1)
    flat_in = rows.reshape(-1)
    flat_out = out.reshape(-1)

    def chunks(lo: int, hi: int) -> None:
        for r0 in range(lo * chunk, min(hi * chunk, nf), chunk):
            r1 = min(r0 + chunk, nf)
            span = (r1 - r0) * m
            flat_in[r0 * m : r1 * m].take(
                base[:span], out=flat_out[r0 * m : r1 * m], mode="clip"
            )

    _in_parts(-(-nf // chunk), out.nbytes, chunks)
    return out


def _encode_rows_serial(
    pre: np.ndarray,
    state: np.ndarray,
    parent_idx: list[np.ndarray],
    out: np.ndarray,
    start_row: int,
) -> None:
    """Row-by-row sweep: out[r] = pre[r] ^ sum_t x^t * state[C_t].

    Each row makes c + 1 numpy calls: one lookup multiplies the state by
    x, x^2, .., x^(c-1) at once, one flat gather picks every term through
    the concatenated index [C_1, m + C_2, ..], and c - 1 XORs sum them.
    """
    nf, m = out.shape
    terms = len(parent_idx)
    # tables[t][s] multiplies by pick_x(t + 1) ** (s + 1)
    tables = list(MUL_TABLE[EXP_TABLE[_X_LOGS[:, None] * np.arange(1, terms + 1) % 255]])
    cat = np.concatenate([s * m + cidx for s, cidx in enumerate(parent_idx)])
    scaled = np.empty((terms, m), dtype=np.uint8)
    gathered = np.empty((terms, m), dtype=np.uint8)
    flat_scaled, flat_gathered = scaled.reshape(-1), gathered.reshape(-1)
    first, rest = gathered[0], list(gathered[1:])
    for r, row, pre_row in zip(range(start_row, nf), out[start_row:], pre[start_row:]):
        tables[r % _X_PERIOD].take(state, axis=1, out=scaled, mode="clip")
        flat_scaled.take(cat, out=flat_gathered, mode="clip")
        np.bitwise_xor(pre_row, first, out=row)
        for term in rest:
            np.bitwise_xor(row, term, out=row)
        state = row


def _encode_rows_scan(
    pre: np.ndarray, initial_state: np.ndarray, cidx: np.ndarray, out: np.ndarray
) -> None:
    """Blocked scan for the c == 2 recurrence s_r = pre[r] ^ x_r * s_{r-1}[C].

    Rows are grouped into batches of one full x period so every batch sees
    the same x sequence and batches can advance in lockstep.  A first sweep
    computes the batch-local recurrence from a zero entry state (the mixing
    is linear over the field, so states superpose); a short serial pass then
    propagates the true state across batch boundaries; a second sweep replays
    the recurrence from the true entry states to produce the output rows.
    Every gather runs flat over a contiguous range of batches, one range and
    one slice of the buffers per thread, so throughput does not depend on k
    or the block size.
    """
    nf, m = out.shape
    b = _X_PERIOD
    nb = nf // b
    body = nb * b

    xs = [pick_x(tau + 1) for tau in range(b)]
    pre3 = pre[:body].reshape(nb, b, m)
    out3 = out[:body].reshape(nb, b, m)

    # flat gather index applying C to every batch of a range at once
    flat_c = (np.arange(nb, dtype=np.intp)[:, None] * m + cidx).reshape(-1)

    gbuf = np.empty(nb * m, dtype=np.uint8)
    mbuf = np.empty((nb, m), dtype=np.uint8)
    cur = np.empty((nb, m), dtype=np.uint8)

    def sweep(lo: int, hi: int, store: bool) -> None:
        # cur holds the entry state (previous row) and is replaced in place;
        # the gather snapshots it into gbuf first, so aliasing is safe
        state, g, mb = cur[lo:hi], gbuf[lo * m : hi * m], mbuf[lo:hi]
        flat_state, flat_mb, idx = state.reshape(-1), mb.reshape(-1), flat_c[: g.size]
        for tau in range(0 if store else 1, b):
            flat_state.take(idx, out=g, mode="clip")
            MUL_TABLE[xs[tau]].take(g, out=flat_mb, mode="clip")
            np.bitwise_xor(pre3[lo:hi, tau, :], mb, out=state)
            if store:
                out3[lo:hi, tau, :] = state

    # sweep 1: batch-local states with zero entry state
    cur[:] = pre3[:, 0, :]
    _in_parts(nb, out.nbytes, lambda lo, hi: sweep(lo, hi, store=False))

    # boundary pass: true state entering each batch
    cpow = cidx  # C composed with itself b times
    for _ in range(b - 1):
        cpow = cpow.take(cidx)
    xprod = 1
    for x in xs:
        xprod = int(MUL_TABLE[xprod, x])
    state = initial_state
    for beta in range(nb):  # cur[beta] becomes the entry state of batch beta
        state, cur[beta] = cur[beta] ^ MUL_TABLE[xprod].take(state.take(cpow)), state

    # sweep 2: replay from the true entry states, storing every row
    _in_parts(nb, out.nbytes, lambda lo, hi: sweep(lo, hi, store=True))

    _encode_rows_serial(pre, out[body - 1], [cidx], out, start_row=body)
