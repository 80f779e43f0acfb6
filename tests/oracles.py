"""Slow, independent reference implementations used as test oracles.

Nothing here imports the package under test: field arithmetic is carry-less
"peasant" multiplication with explicit modular reduction, inverses come from
exhaustive search, and the reference codec is a direct byte-at-a-time
transcription of the scheme's definitions.  ``periodic_sample`` is the
worst-case input of the statistical tests.
"""

from __future__ import annotations

import random

POLY = 0x11B


def gf_mul(a: int, b: int) -> int:
    """Peasant multiplication in GF(2^8) mod x^8+x^4+x^3+x+1."""
    out = 0
    for _ in range(8):
        if b & 1:
            out ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= POLY & 0xFF
        b >>= 1
    return out


def gf_inv(a: int) -> int:
    """Exhaustive-search inverse."""
    for b in range(1, 256):
        if gf_mul(a, b) == 1:
            return b
    raise ValueError(f"no inverse for {a}")


def gf_pow(a: int, e: int) -> int:
    out = 1
    for _ in range(e):
        out = gf_mul(out, a)
    return out


def lagrange_at_zero(points: list[tuple[int, int]]) -> int:
    """Brute-force Lagrange interpolation of (x, y) points evaluated at 0."""
    out = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if i != j:
                num = gf_mul(num, xj)
                den = gf_mul(den, xi ^ xj)
        out ^= gf_mul(yi, gf_mul(num, gf_inv(den)))
    return out


def invert_matrix(rows: list[list[int]]) -> list[list[int]]:
    """Gauss-Jordan inversion over the field, list-of-lists arithmetic."""
    n = len(rows)
    a = [list(r) for r in rows]
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        out[col], out[pivot] = out[pivot], out[col]
        scale = gf_inv(a[col][col])
        a[col] = [gf_mul(scale, v) for v in a[col]]
        out[col] = [gf_mul(scale, v) for v in out[col]]
        for row in range(n):
            if row != col and a[row][col]:
                f = a[row][col]
                a[row] = [v ^ gf_mul(f, w) for v, w in zip(a[row], a[col])]
                out[row] = [v ^ gf_mul(f, w) for v, w in zip(out[row], out[col])]
    return out


# ---------------------------------------------------------------------------
# reference codec: straight-line transcription of the fragmentation rules
# ---------------------------------------------------------------------------


def reference_encode(
    data: bytes,
    k: int,
    c: int,
    block_size: int,
    permutations: list[bytes],
    permutation_shares: list[bytes],
) -> list[list[list[int]]]:
    """Encode byte by byte; returns per-fragment lists of share rows.

    ``permutations`` holds the k/c permutation arrays, ``permutation_shares``
    the k slot-0 shares in fragment order.  Parent wiring, evaluation points,
    and permutation targets follow the definitions directly.
    """
    group = k * block_size
    padded = data + b"\x00" * ((group - len(data) % group) % group)
    blocks = [padded[i : i + block_size] for i in range(0, len(padded), block_size)]
    per_frag: list[list[bytes]] = [[] for _ in range(k)]
    for i, b in enumerate(blocks):
        per_frag[i % k].append(b)
    nf = len(blocks) // k

    rows: list[list[list[int]]] = [[list(permutation_shares[j])] for j in range(k)]
    for i in range(1, nf + 1):
        x = 2 + (i % 254)
        for j in range(k):
            block = per_frag[j][i - 1]
            parents = [rows[(j + t) % k][i - 1] for t in range(1, c)]
            pa = permutations[j % (k // c)]
            share = [0] * block_size
            for v in range(block_size):
                ms = block[v]
                xt = 1
                for parent in parents:
                    xt = gf_mul(xt, x)
                    ms ^= gf_mul(xt, parent[v])
                share[pa[v]] = ms
            rows[j].append(share)
    return rows


def reference_decode(
    fragments: list[list[list[int]]],
    k: int,
    c: int,
    block_size: int,
    permutations: list[bytes],
    payload_length: int,
) -> bytes:
    """Invert reference_encode given the recovered permutation arrays."""
    nf = len(fragments[0]) - 1
    out = bytearray()
    for i in range(1, nf + 1):
        x = 2 + (i % 254)
        for j in range(k):
            pa = permutations[j % (k // c)]
            share = fragments[j][i]
            parents = [fragments[(j + t) % k][i - 1] for t in range(1, c)]
            for v in range(block_size):
                ms = share[pa[v]]
                xt = 1
                for parent in parents:
                    xt = gf_mul(xt, x)
                    ms ^= gf_mul(xt, parent[v])
                out.append(ms)
    return bytes(out[:payload_length])


def periodic_sample(size: int, period: int = 32, seed: int = 0) -> bytes:
    """A strictly periodic sample: one random motif repeated to length."""
    rng = random.Random(seed)
    motif = bytes(rng.randrange(32, 127) for _ in range(period))
    reps = -(-size // period)
    return (motif * reps)[:size]
