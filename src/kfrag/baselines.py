"""Reference fragmentation schemes used for cross-checks and benchmarks.

Four classic constructions sit behind the same split/reconstruct shape:

* perfect secret sharing: every byte becomes a point on a fresh random
  polynomial, any k of n points recover it, fewer reveal nothing;
* matrix dispersal: data times a Vandermonde generator matrix, compact and
  recoverable from any k rows, but patterns in the input survive in the
  fragments when the matrix is reused;
* encrypt-then-disperse: symmetric encryption, matrix dispersal of the
  ciphertext, and perfect sharing of the key embedded in the fragments;
* all-or-nothing: the key is masked with a digest of the ciphertext, so no
  fragment is useful until every ciphertext byte is present; parity rows
  extend the k parts to n.

The cipher is pluggable and defaults to AES-128-CTR; the all-or-nothing
mask is a SHA-256 digest.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .erasure import ParityParams, parity_fragments, rs_decode, vandermonde
from .errors import IntegrityError, ParameterError, ThresholdError
from .gf256 import inv, invert_matrix, matmul, mul


class SchemeId(str, Enum):
    SSS = "sss"
    IDA = "ida"
    SSMS = "ssms"
    AONT_RS = "aont-rs"
    PROPOSED = "proposed"


# ---------------------------------------------------------------------------
# cipher
# ---------------------------------------------------------------------------


class AesCtrCipher:
    """AES-128 in CTR mode; the nonce travels with each fragment.

    ``cryptography`` is imported on first use, so commands of the other schemes
    do not load it.
    """

    key_size = 16
    nonce_size = 16

    @staticmethod
    def _cipher(key: bytes, nonce: bytes):
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

        return Cipher(algorithms.AES(key), modes.CTR(nonce))

    def generate_key(self, rng: random.Random) -> bytes:
        return rng.randbytes(self.key_size)

    def encrypt(self, key: bytes, data: bytes, rng: random.Random) -> tuple[bytes, bytes]:
        nonce = rng.randbytes(self.nonce_size)
        enc = self._cipher(key, nonce).encryptor()
        return enc.update(data) + enc.finalize(), nonce

    def decrypt(self, key: bytes, nonce: bytes, data: bytes) -> bytes:
        if len(key) != self.key_size or len(nonce) != self.nonce_size:
            raise IntegrityError("recovered key or nonce has the wrong length")
        dec = self._cipher(key, nonce).decryptor()
        return dec.update(data) + dec.finalize()


# ---------------------------------------------------------------------------
# fragment records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SssFragment:
    x: int  # evaluation point, 1..n
    data: bytes
    k: int
    n: int
    payload_length: int

    @property
    def index(self) -> int:
        return self.x - 1


@dataclass(frozen=True)
class IdaFragment:
    index: int
    row: bytes  # the generator matrix row this fragment was combined with
    data: bytes
    k: int
    n: int
    payload_length: int


@dataclass(frozen=True)
class SsmsFragment:
    index: int
    row: bytes
    key_x: int
    key_share: bytes
    nonce: bytes
    data: bytes
    k: int
    n: int
    payload_length: int


@dataclass(frozen=True)
class AontFragment:
    index: int  # indices >= k are parity rows
    data: bytes
    k: int
    n: int
    payload_length: int
    package_length: int
    key_length: int
    nonce: bytes


# ---------------------------------------------------------------------------
# Shamir secret sharing
# ---------------------------------------------------------------------------

_SSS_CHUNK = 4 << 20


def sss_split(secret: bytes, k: int, n: int, rng: random.Random) -> list[SssFragment]:
    """Share a byte string so any k of n fragments reconstruct it.

    Per byte position a fresh polynomial of degree k-1 with the secret byte
    as constant term is evaluated at x = 1..n; fragment t carries all the
    values at x = t.
    """
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > 255:
        raise ParameterError(f"field exhausted: n must be at most 255, got {n}")
    if len(secret) == 0:
        raise ParameterError("nothing to share")
    length = len(secret)
    data = np.frombuffer(secret, dtype=np.uint8)
    shares = np.empty((n, length), dtype=np.uint8)
    powers = vandermonde(n, k)  # row t holds [1, x, x^2, ...] at x = t + 1
    # chunked so coefficient storage stays bounded for large payloads
    for lo in range(0, length, _SSS_CHUNK):
        hi = min(lo + _SSS_CHUNK, length)
        coeffs = [
            np.frombuffer(rng.randbytes(hi - lo), dtype=np.uint8) for _ in range(k - 1)
        ]
        shares[:, lo:hi] = matmul(powers, [data[lo:hi], *coeffs])
    return [
        SssFragment(x=t + 1, data=shares[t].tobytes(), k=k, n=n, payload_length=length)
        for t in range(n)
    ]


def sss_reconstruct(fragments: list[SssFragment] | list[tuple[int, bytes]], k: int) -> bytes:
    """Lagrange-interpolate the shared bytes at x = 0."""
    pairs = [
        (f.x, f.data) if isinstance(f, SssFragment) else (int(f[0]), bytes(f[1]))
        for f in fragments
    ]
    if len(pairs) < k:
        raise ThresholdError(f"need at least {k} fragments, got {len(pairs)}")
    xs = [x for x, _ in pairs]
    if len(set(xs)) != len(xs):
        raise ParameterError(f"duplicate x coordinates: {sorted(xs)}")
    lengths = {len(d) for _, d in pairs}
    if len(lengths) > 1:
        raise ParameterError(f"fragment lengths differ: {sorted(lengths)}")
    weights = np.zeros((1, len(pairs)), dtype=np.uint8)
    for t, (xt, _) in enumerate(pairs):
        num, den = 1, 1
        for xu, _ in pairs:
            if xu != xt:
                num = mul(num, xu)
                den = mul(den, xt ^ xu)
        weights[0, t] = mul(num, inv(den))
    rows = [np.frombuffer(data, dtype=np.uint8) for _, data in pairs]
    return matmul(weights, rows)[0].tobytes()


# ---------------------------------------------------------------------------
# information dispersal
# ---------------------------------------------------------------------------


def ida_split(data: bytes, k: int, n: int) -> list[IdaFragment]:
    """Disperse data into n fragments of ceil(|d|/k) bytes, any k recover it."""
    matrix = vandermonde(n, k)  # every k x k row submatrix is invertible
    if len(data) == 0:
        raise ParameterError("nothing to disperse")
    length = len(data)
    groups = -(-length // k)
    padded = np.zeros(groups * k, dtype=np.uint8)
    padded[:length] = np.frombuffer(data, dtype=np.uint8)
    rows = matmul(matrix, padded.reshape(groups, k).T)
    return [
        IdaFragment(
            index=t,
            row=matrix[t].tobytes(),
            data=rows[t].tobytes(),
            k=k,
            n=n,
            payload_length=length,
        )
        for t in range(n)
    ]


def ida_reconstruct(fragments: list[IdaFragment]) -> bytes:
    """Invert the k x k submatrix formed by the received rows."""
    if not fragments:
        raise ThresholdError("no fragments")
    k = fragments[0].k
    if any(f.k != k or f.payload_length != fragments[0].payload_length for f in fragments):
        raise ParameterError("fragments carry inconsistent parameters")
    if len(fragments) < k:
        raise ThresholdError(f"need at least {k} fragments, got {len(fragments)}")
    chosen = fragments[:k]
    matrix = np.stack([np.frombuffer(f.row, dtype=np.uint8) for f in chosen])
    stack = [np.frombuffer(f.data, dtype=np.uint8) for f in chosen]
    cols = matmul(invert_matrix(matrix), stack).T
    return cols.reshape(-1)[: fragments[0].payload_length].tobytes()


# ---------------------------------------------------------------------------
# encrypt-then-disperse (key shared alongside)
# ---------------------------------------------------------------------------


def ssms_split(
    data: bytes,
    k: int,
    n: int,
    rng: random.Random,
    cipher: AesCtrCipher | None = None,
) -> list[SsmsFragment]:
    """Encrypt, disperse the ciphertext, and embed one key share per fragment."""
    cipher = cipher or AesCtrCipher()
    key = cipher.generate_key(rng)
    ciphertext, nonce = cipher.encrypt(key, data, rng)
    body = ida_split(ciphertext, k, n)
    key_shares = sss_split(key, k, n, rng)
    return [
        SsmsFragment(
            index=t,
            row=body[t].row,
            key_x=key_shares[t].x,
            key_share=key_shares[t].data,
            nonce=nonce,
            data=body[t].data,
            k=k,
            n=n,
            payload_length=len(data),
        )
        for t in range(n)
    ]


def ssms_reconstruct(
    fragments: list[SsmsFragment], cipher: AesCtrCipher | None = None
) -> bytes:
    cipher = cipher or AesCtrCipher()
    ciphertext = ida_reconstruct([
        IdaFragment(index=f.index, row=f.row, data=f.data, k=f.k, n=f.n,
                    payload_length=f.payload_length)
        for f in fragments
    ])  # checks the set, so fragments[0] exists
    key = sss_reconstruct([(f.key_x, f.key_share) for f in fragments], fragments[0].k)
    return cipher.decrypt(key, fragments[0].nonce, ciphertext)


# ---------------------------------------------------------------------------
# all-or-nothing transform + parity
# ---------------------------------------------------------------------------


def aont_rs_split(
    data: bytes,
    k: int,
    n: int,
    rng: random.Random,
    cipher: AesCtrCipher | None = None,
) -> list[AontFragment]:
    """Mask the key with a ciphertext digest, cut into k parts, add parity."""
    cipher = cipher or AesCtrCipher()
    key = cipher.generate_key(rng)
    if len(key) > hashlib.sha256().digest_size:
        raise ParameterError("digest is shorter than the key")
    ciphertext, nonce = cipher.encrypt(key, data, rng)
    mask = hashlib.sha256(ciphertext).digest()[: len(key)]
    masked_key = bytes(a ^ b for a, b in zip(key, mask))
    package = ciphertext + masked_key
    part = -(-len(package) // k)
    package = package + b"\x00" * (part * k - len(package))
    parts = [package[i * part : (i + 1) * part] for i in range(k)]

    common = dict(
        k=k,
        n=n,
        payload_length=len(data),
        package_length=len(ciphertext) + len(key),
        key_length=len(key),
        nonce=nonce,
    )
    out = [AontFragment(index=t, data=parts[t], **common) for t in range(k)]
    if n > k:
        for pf in parity_fragments(parts, ParityParams(k=k, n=n)):
            out.append(AontFragment(index=pf.index, data=pf.data, **common))
    return out


def aont_rs_reconstruct(
    fragments: list[AontFragment],
    cipher: AesCtrCipher | None = None,
) -> bytes:
    cipher = cipher or AesCtrCipher()
    if not fragments:
        raise ThresholdError("no fragments")
    k, n = fragments[0].k, fragments[0].n
    if n > k:
        primaries = rs_decode([(f.index, f.data) for f in fragments], ParityParams(k=k, n=n))
    else:
        given = {f.index: f.data for f in fragments if f.index < k}
        if len(given) < k:
            raise ThresholdError(f"need at least {k} fragments, got {len(given)}")
        primaries = [given[i] for i in range(k)]
    package = b"".join(primaries)[: fragments[0].package_length]
    key_length = fragments[0].key_length
    ciphertext, masked_key = package[:-key_length], package[-key_length:]
    mask = hashlib.sha256(ciphertext).digest()[:key_length]
    key = bytes(a ^ b for a, b in zip(masked_key, mask))
    return cipher.decrypt(key, fragments[0].nonce, ciphertext)
