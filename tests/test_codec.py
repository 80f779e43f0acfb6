import hashlib
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfrag import codec, gf256, wire
from kfrag.codec import (
    CodecParams,
    Fragment,
    check_fragments,
    decode_data,
    encode_data,
    padded_length,
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
# one block row, by hand
# ---------------------------------------------------------------------------


def _one_row(data, pas, share_rows, params):
    ps = [PermutationShare(bytes(row), j // params.c, j % params.c)
          for j, row in enumerate(share_rows)]
    return codec._encode_with_permutations(data, params, pas, ps)


def test_encode_mini_block_examples():
    # row 1 uses x = pick_x(1) = 3 and the neighbour's permutation share as parent
    params = CodecParams(2, 2, 2)
    identity = PermutationArray(bytes([0, 1]))
    fragset = _one_row(bytes([0x21, 0x5A, 0x00, 0x77]), [identity],
                       [[0x44, 0x00], [0x13, 0x00]], params)
    f0, f1 = fragset
    assert bytes(f0.shares[0]) == bytes([0x21 ^ mul(3, 0x13), 0x5A])
    assert bytes(f1.shares[0]) == bytes([0x00 ^ mul(3, 0x44), 0x77])


def test_decode_mini_block_examples():
    params = CodecParams(2, 2, 2)
    identity = PermutationArray(bytes([0, 1]))
    data = bytes([0x21, 0x5A, 0x00, 0x77])
    frags = list(_one_row(data, [identity], [[0x01, 0x00], [0x01, 0x01]], params))
    assert decode_data(frags) == data
    # a share one bit off decodes one byte off: no MAC, no diffusion within a row
    shares = frags[0].shares.copy()
    shares[0, 0] ^= 0x01
    frags[0] = Fragment(0, params, frags[0].permutation_share, shares, len(data))
    assert decode_data(frags) == bytes([0x20, 0x5A, 0x00, 0x77])


def test_encode_block_identity_cases():
    # zero permutation shares make row 1 the permuted blocks: byte v lands at pa[v]
    params = CodecParams(2, 2, 4)
    identity = PermutationArray(bytes(range(4)))
    block = bytes([9, 8, 7, 6, 5, 4, 3, 2])
    f0, f1 = _one_row(block, [identity], [bytes(4), bytes(4)], params)
    assert bytes(f0.shares[0]) + bytes(f1.shares[0]) == block

    swap = PermutationArray(bytes([1, 0]))
    f0, f1 = _one_row(bytes([0xA0, 0xB0, 0xC0, 0xD0]), [swap], [bytes(2), bytes(2)],
                      CodecParams(2, 2, 2))
    assert bytes(f0.shares[0]) == bytes([0xB0, 0xA0])
    assert bytes(f1.shares[0]) == bytes([0xD0, 0xC0])


def test_encode_block_length_mismatch(rng):
    # a fragment's share rows and permutation share both span one block
    params = CodecParams(2, 2, 4)
    frag = encode_data(rng.randbytes(20), params, rng)[0]
    with pytest.raises(ParameterError, match="wrong shape"):
        Fragment(0, params, frag.permutation_share, frag.shares[:, :3], frag.payload_length)
    with pytest.raises(ParameterError, match="differs from block size"):
        Fragment(0, params, PermutationShare(bytes(3), 0, 0), frag.shares, frag.payload_length)


# ---------------------------------------------------------------------------
# dealing blocks over fragments
# ---------------------------------------------------------------------------


def test_form_fragments_exact_fit_no_padding(rng):
    params = CodecParams(2, 2, 8)
    assert padded_length(16, params) == 16
    fragset = encode_data(bytes(range(16)), params, rng)
    assert [f.num_shares for f in fragset] == [1, 1]


def test_form_fragments_padding_and_empty(rng):
    params = CodecParams(2, 2, 8)
    fragset = encode_data(bytes(range(17)), params, rng)
    assert [f.num_shares for f in fragset] == [2, 2]
    with pytest.raises(ParameterError, match="nothing to fragment"):
        encode_data(b"", params, rng)


def test_balanced_distribution_property(rng):
    for _ in range(20):
        k = rng.choice([2, 4, 6])
        params = CodecParams(k, 2, rng.choice([4, 16, 34]))
        data = rng.randbytes(rng.randrange(1, 2000))
        rows = padded_length(len(data), params) // params.group_size
        # every fragment receives exactly #d/k blocks
        assert {f.num_shares for f in encode_data(data, params, rng)} == {rows}


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


@pytest.mark.parametrize("k,c", [(2, 2), (4, 2), (6, 3), (12, 3), (8, 4)])
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
    _check_against_oracles(rng.randbytes(nf * params.group_size - 5), params, rng)


@pytest.mark.parametrize("k,c,bs,serial", [
    (4, 2, 3, False), (4, 2, 3, True), (6, 3, 3, False),
], ids=["c2", "c2-serial", "c3"])
@pytest.mark.parametrize("nf", [254, 508, 762])
def test_exact_fill_payloads_match_the_oracles(k, c, bs, serial, nf, monkeypatch, rng):
    # nf * k * bs bytes: no padding, and at c = 2 from 508 rows the scan's
    # batches cover every row, leaving no serial tail
    params = CodecParams(k, c, bs)
    if serial:
        monkeypatch.setattr(codec, "_SCAN_MIN_ROWS", 10**9)
    _check_against_oracles(rng.randbytes(nf * params.group_size), params, rng)


def _check_against_oracles(data, params, rng):
    k, c, bs = params.k, params.c, params.block_size
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
    for j, frag in enumerate(fragset):
        assert [bytes(r) for r in frag.shares] == [one_row[j * 8 : (j + 1) * 8]]

    two_rows = bytes(range(4 * 8)) * 2
    fragset = codec._encode_with_permutations(two_rows, params, pas, ps)
    for j, frag in enumerate(fragset):
        # block i goes to fragment i % k: fragment j holds blocks j and j + k
        assert bytes(frag.shares[0]) == two_rows[j * 8 : (j + 1) * 8]
        assert bytes(frag.shares[1]) != two_rows[(j + 4) * 8 : (j + 5) * 8]


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
        check_fragments(fragset[:1])


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


def test_scan_and_serial_paths_agree(monkeypatch, rng):
    cases = [(4, 3, nf, 5) for nf in (507, 508, 509, 510, 1016, 1017)]
    # for each shape: the payload ends exactly at the scan's body; its zero-padded
    # last row would end the body; a tail of one row; a tail one byte long
    cases += [(k, bs, nf, short) for k, bs in ((4, 250), (4, 16), (16, 250))
              for nf, short in ((508, 0), (508, 1), (762, k * bs // 2), (509, 0), (763, k * bs - 1))]
    # where the correction does all the work: every row of an all-zero payload of
    # whole batches is its batch's entry state times Λ_i, and so is every row
    # after the first batch of a payload that is zero after it
    cases += [(k, bs, nf, 0, nonzero) for k, bs in ((4, 250), (16, 250)) for nf in (508, 762)
              for nonzero in (0, 254)]
    for k, bs, nf, short, *nonzero in cases:
        params = CodecParams(k, 2, bs)
        data = rng.randbytes(nf * params.group_size - short)
        if nonzero:  # the payload's bytes after its first nonzero rows are zero
            data = data[: nonzero[0] * params.group_size].ljust(len(data), b"\0")
        scan, pas, ps = _forced_encode(data, params, rng)
        with monkeypatch.context() as serial_only:
            serial_only.setattr(codec, "_SCAN_MIN_ROWS", 10**9)
            serial = codec._encode_with_permutations(data, params, pas, ps)
        for fa, fb in zip(serial, scan):
            assert np.array_equal(fa.shares, fb.shares), (k, bs, nf, short)
        assert decode_data(scan) == data, (k, bs, nf, short)


# SHA-256 of each fragment's shares, recorded from the encoder when its serial and scan
# paths were separate loops: every restructuring of the encoder must reproduce them
_ENCODER_DIGESTS = {
    (4, 2): [  # the scan: 11 batches of 254 rows and a tail of 207
        "5effe260122fb4686e7c15c898cf944652b785beff46c220ceaf0a84656a7431",
        "6da7da0848db78c59abcbb93cdf791fa4d2fb806d5861be9bf56173e4775d869",
        "854b625e8595d9cc0894eab1c91f27582fcb3fb68bc55f0ac0af11125a8b0476",
        "c37372cf6731a234a7e70d950cf8b85c27ecb94572344c7314a3f91f8bb21d6b",
    ],
    (6, 3): [  # the one-range path at c = 3
        "81b270e454328ee42be24fbf1082f2716234ed1a7c56ef18b0315c37be2fa966",
        "3618d6d27fac9cf880385dbd376b8c5d68060dcc960e789e051f230a63b187b2",
        "e8d815fd6bfa1e0cad515d6174d7ef81fd677fcdcbb7151d227765674fbb6302",
        "d776f66604a1670fafbfe0b2bcf38f01443308c70e3135b2c934e06612562fcc",
        "d100550679aefa15f1b7736bb3b3e1155051c957127d8e866f5b6623f6a3bbd7",
        "a2fd552f986949d3d3d3b82f7cc989e45f64955e2e4b397790a5cca6d3aef03c",
    ],
}


@pytest.mark.parametrize("k,c", list(_ENCODER_DIGESTS))
def test_seeded_encode_matches_its_recorded_digests(k, c):
    # a SHA-256 counter stream: the same bytes on every Python and numpy version
    n = 3_000_007
    data = b"".join(hashlib.sha256(i.to_bytes(8, "big")).digest() for i in range(-(-n // 32)))[:n]
    frags = encode_data(data, CodecParams(k, c, 250), random.Random(7))
    assert [hashlib.sha256(f.shares.tobytes()).hexdigest() for f in frags] == _ENCODER_DIGESTS[k, c]


@pytest.mark.parametrize("k,c", [(4, 2), (6, 3)])
def test_encode_and_decode_hold_few_copies_of_the_payload(k, c, monkeypatch, rng):
    # 6 MiB encodes as one part on any host; at c = 2 its 6291 rows take the scan
    params = CodecParams(k, c, 250)
    data = rng.randbytes(6 << 20)
    assert len(data) // params.group_size >= codec._SCAN_MIN_ROWS
    tracemalloc.start()
    try:
        frags = encode_data(data, params, rng)
        encode_peak = tracemalloc.get_traced_memory()[1]
        blobs = [wire.dump_any(f) for f in frags]
        dump_peak = tracemalloc.get_traced_memory()[1]
        frags = [wire.load_any(blob) for blob in blobs]  # views of the blobs
        held = tracemalloc.get_traced_memory()[0]
        decode_peaks = {}
        for cores in (1, 2, 3, 4):  # the decode's part count depends on the host's cores
            monkeypatch.setattr(gf256, "_CORES", cores)
            tracemalloc.reset_peak()
            assert decode_data(frags) == data
            decode_peaks[cores] = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # the encoded rows, which the fragments' shares are views of
    assert encode_peak <= 1.25 * len(data)
    # the encoded rows and the files
    assert dump_peak <= 2.25 * len(data)
    # the output and the scratch rows of every part
    assert max(decode_peaks.values()) <= 1.25 * len(data), decode_peaks


def _cuts(nf, body):
    """Lists of row cuts, each covering range(nf): ranges from row 0, ranges ending
    on the zero-padded last row, one-row ranges, and ranges either side of the
    scan's last batch (``body``, 0 when the scan does not run)."""
    cuts = [[0, nf], [0, 1, nf], [0, nf - 1, nf], [0, 1, nf - 1, nf],
            [0, 1, 2, nf - 2, nf - 1, nf], [0, nf // 3, 2 * nf // 3, nf]]
    if body:
        cuts += [[0, body, nf], [0, body - 1, body + 1, nf], [0, 1, body - 1, body, nf]]
    return cuts


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
def test_decode_pieces_join_to_the_whole_payload(cores, monkeypatch, rng):
    monkeypatch.setattr(gf256, "_CORES", cores)
    # c = 2 with the scan (762 and 8890 rows of body) and without, c = 3 and 4;
    # each last row zero-padded; the last shape spans two decode parts from row 1 on
    cases = [(4, 2, 16, 1000, 5), (4, 2, 16, 300, 1), (6, 3, 34, 700, 1),
             (8, 4, 16, 530, 100), (4, 2, 250, 9000, 77)]
    for k, c, bs, nf, short in cases:
        params = CodecParams(k, c, bs)
        m = params.group_size
        data = rng.randbytes(nf * m - short)
        frags = encode_data(data, params, rng)
        body = len(data) // (254 * m) * 254 if c == 2 and nf >= codec._SCAN_MIN_ROWS else 0
        for cuts in _cuts(nf, body):
            pieces = [decode_data(frags, range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
            assert b"".join(pieces) == data, (k, c, bs, nf, cuts)
            assert all(len(piece) == (hi - lo) * m
                       for piece, lo, hi in zip(pieces, cuts, cuts[1:-1]))


def test_decode_rejects_a_range_outside_the_share_rows(rng):
    frags = encode_data(rng.randbytes(1000), CodecParams(2, 2, 16), rng)  # 32 rows
    for rows in (range(0, 33), range(-1, 3), range(5, 3), range(0, 32, 2)):
        with pytest.raises(ParameterError, match="share rows"):
            decode_data(frags, rows)
    assert decode_data(frags, range(32, 32)) == b""


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
def test_decode_segments_are_equal_and_each_decodes_on_every_core(cores, monkeypatch):
    monkeypatch.setattr(gf256, "_CORES", cores)
    for params in (CodecParams(4, 2, 250), CodecParams(8, 4, 16), CodecParams(16, 2, 250)):
        m = params.group_size
        least = -(-cores * codec._decode_part_min(params) // m)
        for nf in (1, least - 1, least, 2 * least - 1, 2 * least, 7 * least + 3):
            segments = codec.decode_segments(params, nf)
            assert [r.start for r in segments[1:]] == [r.stop for r in segments[:-1]]
            assert (segments[0].start, segments[-1].stop) == (0, nf)
            lengths = {len(r) for r in segments}
            assert max(lengths) - min(lengths) <= 1
            if len(segments) > 1:
                assert min(lengths) >= least
            assert len(segments) == max(1, nf // least)
            # so each segment's decode runs in as many parts as there are cores
            assert min(lengths) * m // codec._decode_part_min(params) >= cores or nf < least
    # (4,2,250) on 2 cores: 6.25 MiB segments
    monkeypatch.setattr(gf256, "_CORES", 2)
    assert 2 * codec._decode_part_min(CodecParams(4, 2, 250)) == 6_550_000


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_encode_chunks_are_whole_batches_that_each_encode_on_every_core(cores, monkeypatch):
    monkeypatch.setattr(gf256, "_CORES", cores)
    for params in (CodecParams(4, 2, 250), CodecParams(8, 4, 16), CodecParams(16, 2, 250)):
        m = params.group_size
        batch = 254 * m
        least = -(-cores * gf256._PART_MIN_BYTES // batch)  # batches
        for length in (1, batch - 1, least * batch, 2 * least * batch - 1, 2 * least * batch,
                       2 * least * batch + 1, 7 * least * batch + 3 * m + 5):
            chunks = codec.encode_chunks(params, length)
            assert [r.start for r in chunks[1:]] == [r.stop for r in chunks[:-1]]
            assert (chunks[0].start, chunks[-1].stop) == (0, padded_length(length, params) // m)
            assert all(len(r) % 254 == 0 for r in chunks[:-1])
            batches = [len(r) // 254 for r in chunks]
            assert len(chunks) == max(1, length // batch // least)
            if len(chunks) > 1:  # each chunk's scan runs in as many parts as there are cores
                assert min(batches) >= least and max(batches) - min(batches[:-1]) <= 1


@pytest.mark.parametrize("cores", [1, 2])
def test_chunks_continue_the_fragments_before_them(cores, monkeypatch, rng):
    # parts of 512 KiB: chunks of at least 762 rows at (4,2,250), so the scan
    # runs in each; at c >= 3 each chunk is one range of the recurrence
    monkeypatch.setattr(gf256, "_CORES", cores)
    monkeypatch.setattr(gf256, "_PART_MIN_BYTES", 1 << 19)
    for k, c, bs in [(4, 2, 250), (4, 2, 16), (6, 3, 250), (8, 4, 16)]:
        params = CodecParams(k, c, bs)
        m = params.group_size
        least = -(-cores * gf256._PART_MIN_BYTES // (254 * m)) * 254 * m  # bytes
        for length in (3 * least + 12345, 2 * least - 1, 2 * least, 2 * least + 1, 1000):
            data = rng.randbytes(length)
            whole = encode_data(data, params, random.Random(length))
            chunks = codec.encode_chunks(params, length)
            assert len(chunks) >= 3 or length < 3 * least
            draws, after, pieces = random.Random(length), (), []
            for rows in chunks:
                after = encode_data(data[rows.start * m : rows.stop * m], params, draws, after,
                                    length)
                assert {(f.first_row, f.num_shares, f.payload_length) for f in after} == {
                    (rows.start, len(rows), length)}
                pieces.append(after)
            for j in range(k):
                assert np.array_equal(np.concatenate([p[j].shares for p in pieces]),
                                      whole[j].shares), (k, c, bs, length, j)
                assert pieces[0][j].permutation_share == whole[j].permutation_share


def test_a_chunk_must_continue_whole_batches_of_the_same_parameters(rng):
    params = CodecParams(4, 2, 16)
    batch = 254 * params.group_size
    data = rng.randbytes(3 * batch)
    with pytest.raises(ParameterError, match="whole 254-row batches"):
        encode_data(data[: batch + 64], params, rng, payload_length=len(data))
    # a payload encoded whole, of whole batches or not, has no rows after it
    for end in (batch, batch + 10 * params.group_size):
        with pytest.raises(ParameterError, match="whole 254-row batches"):
            encode_data(data[end:], params, rng, encode_data(data[:end], params, rng))
    first = encode_data(data[:batch], params, rng, payload_length=len(data))
    with pytest.raises(ParameterError, match="parameters"):
        encode_data(data[batch:], CodecParams(2, 2, 32), rng, first)
    with pytest.raises(ThresholdError):
        encode_data(data[batch:], params, rng, first[1:])
    # fragments of a chunk are not a whole set
    with pytest.raises(ParameterError, match="share count"):
        decode_data(first)


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k,c,bs,nf",
    [
        (4, 2, 250, 50 * 254 + 17),  # scan path, 50 batches and a tail
        (72, 2, 250, 700),  # scan path, 2 batches: fewer than the parts
        (6, 3, 250, 8400),  # serial encode, c = 3 decode phases
    ],
)
def test_threaded_paths_give_the_bytes_of_one_thread(k, c, bs, nf, monkeypatch, rng):
    params = CodecParams(k, c, bs)
    # large enough for three parts of _PART_MIN_BYTES, so 3 cores split
    # every loop unevenly and 1 core runs it on the caller's thread alone
    assert nf * params.group_size >= 3 * gf256._PART_MIN_BYTES
    data = rng.randbytes(nf * params.group_size - 7)
    monkeypatch.setattr(gf256, "_CORES", 1)
    serial, pas, ps = _forced_encode(data, params, rng)
    serial_out = decode_data(serial)
    monkeypatch.setattr(gf256, "_CORES", 3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the parts as finely as possible
    try:
        threaded = codec._encode_with_permutations(data, params, pas, ps)
        threaded_out = decode_data(threaded)
    finally:
        sys.setswitchinterval(switch)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.shares, b.shares)
    assert threaded_out == serial_out == data
