import random
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfrag import baselines as bl
from kfrag.erasure import vandermonde
from kfrag.errors import ParameterError, ThresholdError
from kfrag.gf256 import mul

import oracles


# ---------------------------------------------------------------------------
# perfect secret sharing
# ---------------------------------------------------------------------------


def test_sss_degree_zero_all_fragments_equal_secret(rng):
    secret = b"\x42\x00\xff"
    for frag in bl.sss_split(secret, 1, 3, rng):
        assert frag.data == secret


def test_sss_two_of_two_hand_interpolation():
    class Fixed:
        def __init__(self, coeff):
            self.coeff = coeff

        def randbytes(self, n):
            return bytes([self.coeff] * n)

    s, a = 0x5D, 0x31
    frags = bl.sss_split(bytes([s]), 2, 2, Fixed(a))
    assert frags[0].data == bytes([s ^ a])
    assert frags[1].data == bytes([s ^ mul(2, a)])
    assert bl.sss_reconstruct(frags, 2) == bytes([s])
    assert oracles.lagrange_at_zero([(1, s ^ a), (2, s ^ mul(2, a))]) == s


def test_sss_round_trip_subsets(rng):
    secret = rng.randbytes(100)
    frags = bl.sss_split(secret, 3, 5, rng)
    for subset in combinations(frags, 3):
        assert bl.sss_reconstruct(list(subset), 3) == secret
    assert bl.sss_reconstruct(frags, 3) == secret  # extra points are fine


def test_sss_matches_lagrange_oracle(rng):
    for _ in range(16):
        secret = bytes([rng.randrange(256)])
        frags = bl.sss_split(secret, 2, 3, rng)
        for pair in combinations(frags, 2):
            points = [(f.x, f.data[0]) for f in pair]
            assert oracles.lagrange_at_zero(points) == secret[0]
            assert bl.sss_reconstruct(list(pair), 2) == secret


def test_sss_perfect_secrecy_toy_enumeration():
    # one observed fragment of a 1-byte secret with k=2: for every candidate
    # secret, exactly one coefficient value is consistent
    x, y = 1, 0x7E
    for candidate in range(256):
        consistent = [a for a in range(256) if candidate ^ mul(a, x) == y]
        assert len(consistent) == 1


def test_sss_any_k_minus_1_admits_every_secret(rng):
    # enumerate all coefficient outcomes at 1-byte scale: a single fragment
    # is consistent with all 256 secrets equally often
    k, n = 2, 3
    hits = {s: 0 for s in range(256)}
    x = 2
    y_seen = 0x3C
    for s in range(256):
        for a in range(256):
            if s ^ mul(a, x) == y_seen:
                hits[s] += 1
    assert set(hits.values()) == {1}


def test_sss_parameter_errors(rng):
    with pytest.raises(ParameterError):
        bl.sss_split(b"x", 3, 2, rng)
    with pytest.raises(ParameterError):
        bl.sss_split(b"x", 2, 256, rng)
    with pytest.raises(ParameterError):
        bl.sss_split(b"", 2, 3, rng)
    frags = bl.sss_split(b"abc", 2, 3, rng)
    with pytest.raises(ThresholdError):
        bl.sss_reconstruct(frags[:1], 2)
    with pytest.raises(ParameterError):
        bl.sss_reconstruct([frags[0], frags[0]], 2)


# ---------------------------------------------------------------------------
# information dispersal
# ---------------------------------------------------------------------------


def test_ida_identity_k_equals_n_reblocking():
    # rows of the k x k generator are invertible; with the top rows of the
    # systematic construction... here simply: split then join is identity
    data = bytes(range(1, 25))
    frags = bl.ida_split(data, 3, 3)
    assert bl.ida_reconstruct(frags) == data


def test_ida_unit_vector_reveals_matrix_column():
    matrix = vandermonde(3, 2)
    frags = bl.ida_split(bytes([1, 0]), 2, 3)
    for t in range(3):
        assert frags[t].row == matrix[t].tobytes()
        assert frags[t].data == bytes([matrix[t, 0]])


def test_ida_round_trip_any_k_of_n(rng):
    data = rng.randbytes(997)  # not a multiple of k, exercises padding
    frags = bl.ida_split(data, 3, 5)
    for subset in combinations(frags, 3):
        assert bl.ida_reconstruct(list(subset)) == data


def test_ida_matches_matrix_inverse_oracle(rng):
    for _ in range(10):
        data = rng.randbytes(60)
        frags = bl.ida_split(data, 3, 5)
        chosen = rng.sample(frags, 3)
        rows = [list(f.row) for f in chosen]
        inverse = oracles.invert_matrix(rows)
        groups = len(chosen[0].data)
        out = bytearray()
        for g in range(groups):
            for s in range(3):
                out.append(
                    oracles.gf_mul(inverse[s][0], chosen[0].data[g])
                    ^ oracles.gf_mul(inverse[s][1], chosen[1].data[g])
                    ^ oracles.gf_mul(inverse[s][2], chosen[2].data[g])
                )
        assert bytes(out)[: len(data)] == data
        assert bl.ida_reconstruct(chosen) == data


def test_ida_pattern_preservation_on_periodic_input():
    # the known weakness: periodic plaintext with a fixed matrix gives
    # periodic fragments (autocorrelation peak at the plaintext period)
    k = 4
    period_groups = 8
    seeded = random.Random(5)
    motif = bytes(seeded.randrange(256) for _ in range(k * period_groups))
    data = motif * 64
    frags = bl.ida_split(data, k, k + 1)
    for frag in frags:
        arr = np.frombuffer(frag.data, dtype=np.uint8).astype(np.float64)
        lead, lagged = arr[:-period_groups], arr[period_groups:]
        r = np.corrcoef(lead, lagged)[0, 1]
        assert r == pytest.approx(1.0)


def test_ida_dimension_mismatch(rng):
    with pytest.raises(ParameterError):
        bl.ida_split(b"abcd", 3, 2)  # fewer fragments than the threshold
    with pytest.raises(ParameterError):
        bl.ida_split(b"abcd", 3, 256)  # more rows than field points
    with pytest.raises(ThresholdError):
        bl.ida_reconstruct(bl.ida_split(b"abcd", 3, 5)[:2])


# ---------------------------------------------------------------------------
# encrypt-then-disperse
# ---------------------------------------------------------------------------


def test_ssms_round_trip_any_k_of_n(rng):
    data = rng.randbytes(5000)
    frags = bl.ssms_split(data, 2, 4, rng)
    for subset in combinations(frags, 2):
        assert bl.ssms_reconstruct(list(subset)) == data


def test_ssms_fragment_sizes(rng):
    data = rng.randbytes(6000)
    k, n = 3, 5
    frags = bl.ssms_split(data, k, n, rng)
    for frag in frags:
        assert len(frag.data) == -(-len(data) // k)  # |d|/k ciphertext share
        assert len(frag.key_share) == 16  # |key|
        assert len(frag.row) == k  # matrix-row overhead


class NullCipher:
    """Identity cipher, to see the composition through the cipher seam."""

    key_size = 16
    nonce_size = 0

    def generate_key(self, rng: random.Random) -> bytes:
        return rng.randbytes(self.key_size)

    def encrypt(self, key: bytes, data: bytes, rng: random.Random) -> tuple[bytes, bytes]:
        return data, b""

    def decrypt(self, key: bytes, nonce: bytes, data: bytes) -> bytes:
        return data


def test_ssms_null_cipher_composition(rng):
    data = rng.randbytes(512)
    null = NullCipher()
    seed_rng = random.Random(42)
    frags = bl.ssms_split(data, 2, 3, seed_rng, cipher=null)
    plain = bl.ida_split(data, 2, 3)
    assert [f.data for f in frags] == [f.data for f in plain]
    assert bl.ssms_reconstruct(frags[1:], cipher=null) == data


def test_ssms_threshold(rng):
    frags = bl.ssms_split(b"payload bytes", 3, 4, rng)
    with pytest.raises(ThresholdError):
        bl.ssms_reconstruct(frags[:2])
    with pytest.raises(ThresholdError):
        bl.ssms_reconstruct([])


def test_ssms_rejects_fragments_of_different_payload_lengths(rng):
    frags = bl.ssms_split(rng.randbytes(5000), 2, 3, rng)
    frags[1] = replace(frags[1], payload_length=frags[1].payload_length - 1)
    with pytest.raises(ParameterError):
        bl.ssms_reconstruct(frags)


# ---------------------------------------------------------------------------
# all-or-nothing
# ---------------------------------------------------------------------------


def test_aont_round_trip_primaries(rng):
    data = rng.randbytes(3000)
    frags = bl.aont_rs_split(data, 3, 5, rng)
    assert bl.aont_rs_reconstruct(frags[:3]) == data


def test_aont_round_trip_with_parity_substitution(rng):
    data = rng.randbytes(3000)
    frags = bl.aont_rs_split(data, 3, 5, rng)
    for lost in combinations(range(3), 2):
        kept = [f for f in frags if f.index not in lost]
        assert bl.aont_rs_reconstruct(kept[:3]) == data


def test_aont_bit_flip_breaks_everything(rng):
    data = rng.randbytes(512)
    frags = bl.aont_rs_split(data, 2, 2, rng)
    tampered = bytearray(frags[0].data)
    tampered[0] ^= 0x01  # one ciphertext bit
    bad = bl.AontFragment(
        index=0,
        data=bytes(tampered),
        k=frags[0].k,
        n=frags[0].n,
        payload_length=frags[0].payload_length,
        package_length=frags[0].package_length,
        key_length=frags[0].key_length,
        nonce=frags[0].nonce,
    )
    out = bl.aont_rs_reconstruct([bad, frags[1]])
    assert out != data  # wrong digest -> wrong key -> garbage plaintext


def test_aont_storage_is_payload_plus_key(rng):
    data = rng.randbytes(4096)
    k = 4
    frags = bl.aont_rs_split(data, k, k, rng)
    total = sum(len(f.data) for f in frags)
    package = len(data) + 16
    assert total == -(-package // k) * k  # |d| + |key|, rounded up to k parts
    assert frags[0].package_length == package


def test_aont_digest_must_cover_key(rng):
    class LongKeyCipher(NullCipher):
        key_size = 40  # longer than a SHA-256 digest

    with pytest.raises(ParameterError):
        bl.aont_rs_split(b"x" * 64, 2, 2, rng, cipher=LongKeyCipher())


# ---------------------------------------------------------------------------
# cross-scheme properties
# ---------------------------------------------------------------------------


@settings(max_examples=20)
@given(st.integers(1, 400), st.integers(0, 2**31))
def test_all_schemes_round_trip(size, seed):
    rng = random.Random(seed)
    data = rng.randbytes(size)
    assert bl.sss_reconstruct(bl.sss_split(data, 2, 3, rng)[:2], 2) == data
    assert bl.ida_reconstruct(bl.ida_split(data, 2, 3)[:2]) == data
    assert bl.ssms_reconstruct(bl.ssms_split(data, 2, 3, rng)[:2]) == data
    assert bl.aont_rs_reconstruct(bl.aont_rs_split(data, 2, 3, rng)[:2]) == data
