import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfrag import codec
from kfrag.codec import (
    CodecParams,
    Fragment,
    FragmentSet,
    decode_block,
    decode_data,
    decode_mini_block,
    encode_block,
    encode_data,
    encode_mini_block,
    form_fragments,
    pick_x,
)
from kfrag.errors import IntegrityError, ParameterError, ThresholdError
from kfrag.gf256 import mul
from kfrag.permutation import PermutationArray, PermutationShare, generate_permutations, split_permutation

import oracles


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,c,bs", [(2, 2, 2), (4, 2, 256), (12, 3, 34)])
def test_params_accepted(k, c, bs):
    CodecParams(k, c, bs)


@pytest.mark.parametrize(
    "k,c,bs", [(5, 2, 16), (2, 1, 16), (1, 2, 16), (4, 2, 1), (4, 2, 257), (3, 2, 16)]
)
def test_params_rejected(k, c, bs):
    with pytest.raises(ParameterError):
        CodecParams(k, c, bs)


def test_pick_x_examples():
    assert pick_x(0) == 0x02
    assert pick_x(253) == 0xFF
    assert pick_x(254) == 0x02
    assert all(2 <= pick_x(i) <= 255 for i in range(1000))


# ---------------------------------------------------------------------------
# mini-block and block operations
# ---------------------------------------------------------------------------


def test_encode_mini_block_examples():
    assert encode_mini_block(0x00, [0x00], 0x02) == 0x00
    assert encode_mini_block(0x5A, [0x00, 0x00], 0x07) == 0x5A
    assert encode_mini_block(0x21, [0x13], 0x02) == 0x21 ^ mul(0x02, 0x13)


def test_mini_block_parameter_errors():
    with pytest.raises(ParameterError):
        encode_mini_block(0x21, [], 0x02)
    with pytest.raises(ParameterError):
        encode_mini_block(0x21, [0x13], 0x01)
    with pytest.raises(ParameterError):
        decode_mini_block(0x21, [], 0x02)


def test_decode_mini_block_examples():
    ms = 0x21 ^ mul(0x02, 0x13)
    assert decode_mini_block(ms, [0x13], 0x02) == 0x21
    # perturbing a parent bit changes the result
    assert decode_mini_block(ms, [0x13 ^ 0x01], 0x02) != 0x21


@given(
    st.integers(0, 255),
    st.lists(st.integers(0, 255), min_size=1, max_size=4),
    st.integers(2, 255),
)
def test_mini_block_round_trip(mb, parents, x):
    assert decode_mini_block(encode_mini_block(mb, parents, x), parents, x) == mb


@given(
    st.integers(0, 255),
    st.lists(st.integers(0, 255), min_size=1, max_size=4),
    st.integers(2, 255),
)
def test_encode_mini_block_matches_power_sum_oracle(mb, parents, x):
    expected = mb
    for t, a in enumerate(parents, start=1):
        expected ^= oracles.gf_mul(oracles.gf_pow(x, t), a)
    assert encode_mini_block(mb, parents, x) == expected


def test_encode_block_identity_cases():
    identity = PermutationArray(bytes(range(4)))
    block = bytes([9, 8, 7, 6])
    assert encode_block(block, [bytes(4)], identity, 0x02) == block

    swap = PermutationArray(bytes([1, 0]))
    assert encode_block(bytes([0xA0, 0xB0]), [bytes(2)], swap, 0x02) == bytes([0xB0, 0xA0])


def test_encode_block_matches_positionwise_oracle(rng):
    for c in (2, 3):
        n = 16
        block = rng.randbytes(n)
        parents = [rng.randbytes(n) for _ in range(c - 1)]
        entries = list(range(n))
        rng.shuffle(entries)
        pa = PermutationArray(bytes(entries))
        x = rng.randrange(2, 256)
        got = encode_block(block, parents, pa, x)
        expected = bytearray(n)
        for v in range(n):
            ms = block[v]
            for t, parent in enumerate(parents, start=1):
                ms ^= oracles.gf_mul(oracles.gf_pow(x, t), parent[v])
            expected[entries[v]] = ms
        assert got == bytes(expected)
        assert decode_block(got, parents, pa, x) == block


def test_encode_block_length_mismatch():
    pa = PermutationArray(bytes([0, 1]))
    with pytest.raises(ParameterError):
        encode_block(bytes(3), [bytes(2)], pa, 2)
    with pytest.raises(ParameterError):
        encode_block(bytes(2), [bytes(3)], pa, 2)
    with pytest.raises(ParameterError):
        encode_block(bytes(2), [], pa, 2)


# ---------------------------------------------------------------------------
# form_fragments
# ---------------------------------------------------------------------------


def test_form_fragments_round_robin():
    bs, k = 4, 4
    data = bytes(range(32))  # exactly 8 blocks
    lists = form_fragments(data, CodecParams(k, 2, bs))
    blocks = [data[i : i + bs] for i in range(0, 32, bs)]
    assert lists[0] == [blocks[0], blocks[4]]
    assert lists[1] == [blocks[1], blocks[5]]
    assert lists[2] == [blocks[2], blocks[6]]
    assert lists[3] == [blocks[3], blocks[7]]


def test_form_fragments_exact_fit_no_padding():
    params = CodecParams(2, 2, 8)
    data = bytes(range(16))
    lists = form_fragments(data, params)
    assert [len(l) for l in lists] == [1, 1]
    assert b"".join(lists[0] + lists[1]) == data


def test_form_fragments_padding_and_empty():
    params = CodecParams(2, 2, 8)
    lists = form_fragments(bytes(range(17)), params)
    assert [len(l) for l in lists] == [2, 2]
    with pytest.raises(ParameterError, match="nothing to fragment"):
        form_fragments(b"", params)


def test_balanced_distribution_property(rng):
    for _ in range(20):
        k = rng.choice([2, 4, 6])
        params = CodecParams(k, 2, rng.choice([4, 16, 34]))
        data = rng.randbytes(rng.randrange(1, 2000))
        lists = form_fragments(data, params)
        sizes = {len(l) for l in lists}
        assert len(sizes) == 1  # every fragment receives exactly #d/k blocks


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def _forced_encode(data, params, rng):
    """Encode with explicit permutations, returning them for the oracle."""
    pas = generate_permutations(params.k, params.c, params.block_size, rng)
    ps = [None] * params.k
    for r, pa in enumerate(pas):
        for share in split_permutation(pa, params.c, rng, array_index=r):
            ps[r * params.c + share.share_index] = share
    fragset = codec._encode_with_permutations(data, params, pas, ps)
    return fragset, pas, ps


@pytest.mark.parametrize("k,c", [(2, 2), (4, 2), (6, 3), (12, 3)])
@pytest.mark.parametrize("bs", [2, 16, 34])
def test_encode_matches_reference_oracle(k, c, bs, rng):
    params = CodecParams(k, c, bs)
    data = rng.randbytes(k * bs * 3 + 5)
    fragset, pas, ps = _forced_encode(data, params, rng)
    expected = oracles.reference_encode(
        data, k, c, bs, [pa.entries for pa in pas], [s.entries for s in ps]
    )
    for j, frag in enumerate(fragset):
        got_rows = [list(frag.permutation_share.entries)] + [
            list(row) for row in frag.shares
        ]
        assert got_rows == expected[j], f"fragment {j} diverges from the oracle"


def test_encode_matches_blockwise_composition(rng):
    # the stream encoder must equal composing the public per-block operation
    params = CodecParams(4, 2, 8)
    data = rng.randbytes(4 * 8 * 3)
    fragset, pas, ps = _forced_encode(data, params, rng)
    lists = form_fragments(data, params)
    rows = [[ps[j].entries] for j in range(4)]
    for i in range(1, 4):
        x = pick_x(i)
        for j in range(4):
            parents = [bytes(rows[(j + t) % 4][i - 1]) for t in range(1, 2)]
            pa = pas[j % (4 // 2)]
            rows[j].append(encode_block(lists[j][i - 1], parents, pa, x))
    for j, frag in enumerate(fragset):
        assert [bytes(r) for r in frag.shares] == rows[j][1:]


def test_round_trip_reference_decode(rng):
    params = CodecParams(6, 3, 16)
    data = rng.randbytes(1000)
    fragset, pas, ps = _forced_encode(data, params, rng)
    frag_rows = [
        [list(f.permutation_share.entries)] + [list(r) for r in f.shares]
        for f in fragset
    ]
    assert (
        oracles.reference_decode(
            frag_rows, 6, 3, 16, [pa.entries for pa in pas], len(data)
        )
        == data
    )
    assert decode_data(fragset) == data


@pytest.mark.parametrize("k,c,bs", [(4, 2, 3), (6, 3, 3), (8, 4, 3)])
@pytest.mark.parametrize("nf", [253, 254, 255, 509])
def test_codec_matches_oracles_across_the_x_period(k, c, bs, nf, rng):
    # x repeats every 254 rows: these row counts end just before, on and
    # after one period, and past two (where c == 2 switches to the scan)
    params = CodecParams(k, c, bs)
    data = rng.randbytes(nf * params.group_size - 5)
    fragset, pas, ps = _forced_encode(data, params, rng)
    expected = oracles.reference_encode(
        data, k, c, bs, [pa.entries for pa in pas], [s.entries for s in ps]
    )
    got = [
        [list(f.permutation_share.entries)] + [list(row) for row in f.shares]
        for f in fragset
    ]
    assert got == expected
    assert decode_data(fragset) == oracles.reference_decode(
        expected, k, c, bs, [pa.entries for pa in pas], len(data)
    )


def test_zero_data_identity_permutations_is_identity(rng):
    # analytic fixture: zero permutation shares and identity permutations
    # make the first share row a passthrough of the data bytes (rows after
    # the first pick up their neighbors' now-nonzero shares as parents)
    params = CodecParams(4, 2, 8)
    identity = PermutationArray(bytes(range(8)))
    pas = [identity, identity]
    ps = [PermutationShare(bytes(8), j // 2, j % 2) for j in range(4)]
    one_row = bytes(range(4 * 8))
    fragset = codec._encode_with_permutations(one_row, params, pas, ps)
    lists = form_fragments(one_row, params)
    for j, frag in enumerate(fragset):
        assert [bytes(r) for r in frag.shares] == lists[j]

    two_rows = bytes(range(4 * 8)) * 2
    fragset = codec._encode_with_permutations(two_rows, params, pas, ps)
    lists = form_fragments(two_rows, params)
    for j, frag in enumerate(fragset):
        assert bytes(frag.shares[0]) == lists[j][0]
        assert bytes(frag.shares[1]) != lists[j][1]


def test_all_zero_data_forced_zero_randomness(rng):
    params = CodecParams(2, 2, 4)
    identity = PermutationArray(bytes(range(4)))
    ps = [PermutationShare(bytes(4), 0, z) for z in range(2)]
    fragset = codec._encode_with_permutations(bytes(16), params, [identity], ps)
    for frag in fragset:
        assert not frag.shares.any()


@settings(max_examples=30)
@given(
    st.sampled_from([(2, 2), (4, 2), (6, 3)]),
    st.integers(2, 40),
    st.integers(1, 600),
    st.integers(0, 2**32 - 1),
)
def test_round_trip_property(kc, bs, size, seed):
    k, c = kc
    rng = random.Random(seed)
    data = rng.randbytes(size)
    fragset = encode_data(data, CodecParams(k, c, bs), rng)
    assert decode_data(fragset) == data


def test_two_encodes_differ_but_both_decode(rng):
    params = CodecParams(4, 2, 34)
    data = rng.randbytes(5000)
    a = encode_data(data, params, rng)
    b = encode_data(data, params, rng)
    assert any(
        not np.array_equal(fa.shares, fb.shares) for fa, fb in zip(a, b)
    )
    assert decode_data(a) == decode_data(b) == data


def test_fragment_count_and_share_count(rng):
    params = CodecParams(4, 2, 16)
    data = rng.randbytes(4 * 16 * 7 + 3)
    fragset = encode_data(data, params, rng)
    assert len(fragset) == 4
    padded_blocks = (len(data) + 4 * 16 - 1) // (4 * 16) * 4
    for frag in fragset:
        assert frag.num_shares == padded_blocks // 4
        assert frag.permutation_share.array_index == frag.index // 2
        assert frag.permutation_share.share_index == frag.index % 2


def test_threshold_errors(rng):
    params = CodecParams(4, 2, 16)
    fragset = encode_data(rng.randbytes(500), params, rng)
    frags = list(fragset)
    for drop in range(4):
        subset = [f for f in frags if f.index != drop]
        with pytest.raises(ThresholdError) as err:
            decode_data(subset)
        assert err.value.missing == (drop,)
    with pytest.raises(ThresholdError):
        decode_data([])
    with pytest.raises(ParameterError):
        decode_data([frags[0], frags[0], frags[1], frags[2]])


def test_incomplete_set_cannot_be_constructed(rng):
    fragset = encode_data(rng.randbytes(100), CodecParams(2, 2, 4), rng)
    with pytest.raises(ThresholdError):
        FragmentSet(tuple(list(fragset)[:1]))


def test_mismatched_params_rejected(rng):
    a = encode_data(rng.randbytes(100), CodecParams(2, 2, 4), rng)
    b = encode_data(rng.randbytes(100), CodecParams(2, 2, 8), rng)
    with pytest.raises(ParameterError):
        decode_data([list(a)[0], list(b)[1]])


def test_corrupted_permutation_share_detected(rng):
    params = CodecParams(2, 2, 16)
    frags = list(encode_data(rng.randbytes(200), params, rng))
    bad_entries = bytearray(frags[0].permutation_share.entries)
    bad_entries[0] ^= 0xFF
    frags[0] = Fragment(
        index=0,
        params=params,
        permutation_share=PermutationShare(bytes(bad_entries), 0, 0),
        shares=frags[0].shares.copy(),
        payload_length=frags[0].payload_length,
    )
    with pytest.raises(IntegrityError):
        decode_data(frags)


def test_data_share_bit_flip_changes_output_silently(rng):
    # no MAC by design: decode succeeds but the payload differs
    params = CodecParams(2, 2, 16)
    data = rng.randbytes(200)
    frags = list(encode_data(data, params, rng))
    shares = frags[0].shares.copy()
    shares[0, 0] ^= 0x01
    frags[0] = Fragment(
        index=0,
        params=params,
        permutation_share=frags[0].permutation_share,
        shares=shares,
        payload_length=frags[0].payload_length,
    )
    out = decode_data(frags)
    assert out != data
    assert len(out) == len(data)


def test_scan_and_serial_paths_agree(rng):
    params = CodecParams(4, 2, 3)
    for nf in (507, 508, 509, 510, 1016, 1017):
        data = rng.randbytes(nf * params.group_size - 5)
        pas = generate_permutations(params.k, params.c, params.block_size, rng)
        ps = [None] * params.k
        for r, pa in enumerate(pas):
            for share in split_permutation(pa, params.c, rng, array_index=r):
                ps[r * params.c + share.share_index] = share
        saved = codec._SCAN_MIN_ROWS
        try:
            codec._SCAN_MIN_ROWS = 10**9
            serial = codec._encode_with_permutations(data, params, pas, ps)
        finally:
            codec._SCAN_MIN_ROWS = saved
        scan = codec._encode_with_permutations(data, params, pas, ps)
        for fa, fb in zip(serial, scan):
            assert np.array_equal(fa.shares, fb.shares)
