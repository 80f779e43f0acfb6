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

Two equivalent encode implementations exist: a vectorized row-serial sweep,
and a blocked scan for c == 2 that exploits the linearity of the row
recurrence to run in large batches regardless of k and the block size.  Both
produce bit-identical fragments.  Decoding has no cross-row dependency and
runs over all rows at once, on one thread: one un-permute gather, then for
each of the 254 evaluation points one multiply-by-constant table lookup over
every row that uses it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ThresholdError
from .gf256 import MUL_TABLE, horner_eval, mul
from .permutation import (
    MAX_POSITIONS,
    PermutationArray,
    PermutationShare,
    generate_permutations,
    reconstruct_permutation,
    split_permutation,
)

MINI_BLOCK_SIZE = 1

# x values cycle with this period; the blocked scan aligns its batches to it
# so every batch sees the same x sequence.
_X_PERIOD = 254
_SCAN_MIN_ROWS = 2 * _X_PERIOD


@dataclass(frozen=True)
class CodecParams:
    """Fragmentation parameters: k fragments over c sites, |b|-byte blocks."""

    k: int
    c: int
    block_size: int
    mini_block_size: int = MINI_BLOCK_SIZE

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
        if self.mini_block_size != MINI_BLOCK_SIZE:
            raise ParameterError("only 1-byte mini-blocks are supported")

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


def encode_mini_block(mb: int, parent_ms: list[int] | bytes, x: int) -> int:
    """Encode one byte as p(x) with p = mb + a_0*x + ... + a_{c-2}*x^{c-1}."""
    if len(parent_ms) == 0:
        raise ParameterError("at least one parent mini-share is required")
    if not 2 <= x <= 255:
        raise ParameterError(f"x must be in [2, 255], got {x}")
    return horner_eval([mb, *parent_ms], x)


def decode_mini_block(ms: int, parent_ms: list[int] | bytes, x: int) -> int:
    """Invert encode_mini_block; identical formula in characteristic 2."""
    if len(parent_ms) == 0:
        raise ParameterError("at least one parent mini-share is required")
    if not 2 <= x <= 255:
        raise ParameterError(f"x must be in [2, 255], got {x}")
    return horner_eval([ms, *parent_ms], x)


def encode_block(
    block: bytes, parent_shares: list[bytes], pa: PermutationArray, x: int
) -> bytes:
    """Encode a block into a share, permuting each byte to position pa(v)."""
    n = len(pa)
    if len(block) != n or any(len(p) != n for p in parent_shares):
        raise ParameterError("block, parents, and permutation must share one length")
    if not parent_shares:
        raise ParameterError("at least one parent share is required")
    out = bytearray(n)
    for v in range(n):
        ms = encode_mini_block(block[v], [p[v] for p in parent_shares], x)
        out[pa.entries[v]] = ms
    return bytes(out)


def decode_block(
    share: bytes, parent_shares: list[bytes], pa: PermutationArray, x: int
) -> bytes:
    """Invert encode_block given the same parents, permutation, and x."""
    n = len(pa)
    if len(share) != n or any(len(p) != n for p in parent_shares):
        raise ParameterError("share, parents, and permutation must share one length")
    if not parent_shares:
        raise ParameterError("at least one parent share is required")
    out = bytearray(n)
    for v in range(n):
        ms = share[pa.entries[v]]
        out[v] = decode_mini_block(ms, [p[v] for p in parent_shares], x)
    return bytes(out)


def padded_length(data_length: int, params: CodecParams) -> int:
    """Length after zero-padding up to a multiple of k * block_size."""
    group = params.group_size
    return ((data_length + group - 1) // group) * group


def form_fragments(data: bytes, params: CodecParams) -> list[list[bytes]]:
    """Deal blocks round-robin: block i goes to list i % k.

    The data is zero-padded to a whole number of block rows so every list
    receives the same number of blocks; the caller keeps the true length.
    """
    if len(data) == 0:
        raise ParameterError("nothing to fragment")
    bs = params.block_size
    padded = data + b"\x00" * (padded_length(len(data), params) - len(data))
    blocks = [padded[i : i + bs] for i in range(0, len(padded), bs)]
    lists: list[list[bytes]] = [[] for _ in range(params.k)]
    for i, block in enumerate(blocks):
        lists[i % params.k].append(block)
    return lists


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
    unpermute = np.argsort(_flat_permutation_gather(pas, params))
    out = _gather_rows(rows[1:], unpermute)
    for phase in range(min(nf, _X_PERIOD)):
        x = pick_x(phase + 1)
        prev = rows[phase:nf:_X_PERIOD]
        dst = out[phase::_X_PERIOD]
        xt = 1
        for t in range(1, c):
            xt = mul(xt, x)
            term, cut = MUL_TABLE[xt].take(prev, mode="clip"), t * bs
            dst[:, : m - cut] ^= term[:, cut:]
            dst[:, m - cut :] ^= term[:, :cut]
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


def _pad_to_array(data: bytes, params: CodecParams) -> np.ndarray:
    padded = np.zeros(padded_length(len(data), params), dtype=np.uint8)
    padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    return padded


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
    padded = _pad_to_array(data, params)
    m = params.group_size
    nf = padded.size // m
    rows = padded.reshape(nf, m)

    ps_rows = np.empty((k, bs), dtype=np.uint8)
    for j in range(k):
        ps_rows[j] = np.frombuffer(ps[j].entries, dtype=np.uint8)

    pi = _flat_permutation_gather(pas, params)
    parent_idx = _parent_gathers(params, pi)
    pre = _gather_rows(rows, pi)  # m'_i: block rows pre-permuted into the output frame
    out = np.empty((nf, m), dtype=np.uint8)

    if params.c == 2 and nf >= _SCAN_MIN_ROWS:
        _encode_rows_scan(pre, ps_rows.reshape(-1), parent_idx[0], out)
    else:
        _encode_rows_serial(pre, ps_rows.reshape(-1), parent_idx, out, start_row=0)

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
    for r0 in range(0, nf, chunk):
        r1 = min(r0 + chunk, nf)
        span = (r1 - r0) * m
        flat_in[r0 * m : r1 * m].take(
            base[:span], out=flat_out[r0 * m : r1 * m], mode="clip"
        )
    return out


def _encode_rows_serial(
    pre: np.ndarray,
    state: np.ndarray,
    parent_idx: list[np.ndarray],
    out: np.ndarray,
    start_row: int,
) -> None:
    """Row-by-row sweep: out[r] = pre[r] ^ sum_t x^t * state[C_t]."""
    nf, m = out.shape
    gbuf = np.empty(m, dtype=np.uint8)
    mbuf = np.empty(m, dtype=np.uint8)
    for r in range(start_row, nf):
        x = pick_x(r + 1)
        row, acc, xt = out[r], pre[r], 1
        for cidx in parent_idx:
            xt = mul(xt, x)
            state.take(cidx, out=gbuf, mode="clip")
            MUL_TABLE[xt].take(gbuf, out=mbuf, mode="clip")
            np.bitwise_xor(acc, mbuf, out=row)
            acc = row
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
    Every gather runs flat over all batches at once, so throughput does not
    depend on k or the block size.
    """
    nf, m = out.shape
    b = _X_PERIOD
    nb = nf // b
    body = nb * b

    xs = [pick_x(tau + 1) for tau in range(b)]
    pre3 = pre[:body].reshape(nb, b, m)
    out3 = out[:body].reshape(nb, b, m)

    # flat gather index applying C to every batch at once
    flat_c = (np.arange(nb, dtype=np.intp)[:, None] * m + cidx).reshape(-1)

    gbuf = np.empty(nb * m, dtype=np.uint8)
    mbuf = np.empty((nb, m), dtype=np.uint8)
    cur = np.empty((nb, m), dtype=np.uint8)

    def sweep(store: bool) -> None:
        # cur holds the entry state (previous row) and is replaced in place;
        # the gather snapshots it into gbuf first, so aliasing is safe
        for tau in range(0 if store else 1, b):
            cur.reshape(-1).take(flat_c, out=gbuf, mode="clip")
            MUL_TABLE[xs[tau]].take(gbuf, out=mbuf.reshape(-1), mode="clip")
            np.bitwise_xor(pre3[:, tau, :], mbuf, out=cur)
            if store:
                out3[:, tau, :] = cur

    # sweep 1: batch-local states with zero entry state
    cur[:] = pre3[:, 0, :]
    sweep(store=False)

    # boundary pass: true state entering each batch
    cpow = cidx  # C composed with itself b times
    for _ in range(b - 1):
        cpow = cpow.take(cidx)
    xprod = 1
    for x in xs:
        xprod = int(MUL_TABLE[xprod, x])
    bounds = np.empty((nb, m), dtype=np.uint8)
    state = np.asarray(initial_state, dtype=np.uint8)
    for beta in range(nb):
        bounds[beta] = state
        state = cur[beta] ^ MUL_TABLE[xprod].take(state.take(cpow))

    # sweep 2: replay from the true entry states, storing every row
    cur[:] = bounds
    sweep(store=True)

    _encode_rows_serial(pre, out[body - 1], [cidx], out, start_row=body)
