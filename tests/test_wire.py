import numpy as np
import pytest

from kfrag import baselines, wire
from kfrag.codec import CodecParams, Fragment, encode_data, padded_length
from kfrag.erasure import ParityParams, parity_fragments
from kfrag.errors import ParameterError
from kfrag.permutation import PermutationShare


def _tiny_fragment() -> Fragment:
    return Fragment(
        index=0,
        params=CodecParams(2, 2, 2),
        permutation_share=PermutationShare(bytes([0xAA, 0xBB]), 0, 0),
        shares=np.array([[0x01, 0x02]], dtype=np.uint8),
        payload_length=4,
    )


GOLDEN_TINY = bytes.fromhex(
    "4b465247"  # "KFRG"
    "01"        # version
    "0002"      # k
    "02"        # c
    "0000"      # j
    "0002"      # block size
    "0000000000000004"  # payload length
    "00"        # r
    "00"        # z
    "aabb"      # permutation share
    "00000001"  # share count
    "0102"      # share bytes
)


def test_golden_bytes_exact():
    assert wire.dump_fragment(_tiny_fragment()) == GOLDEN_TINY


def test_golden_bytes_load():
    frag = wire.load_fragment(GOLDEN_TINY)
    assert frag.index == 0
    assert frag.params == CodecParams(2, 2, 2)
    assert frag.payload_length == 4
    assert frag.permutation_share.entries == bytes([0xAA, 0xBB])
    assert frag.shares.tolist() == [[1, 2]]


def test_round_trip_real_fragments(rng):
    fragset = encode_data(rng.randbytes(5000), CodecParams(6, 3, 34), rng)
    for frag in fragset:
        blob = wire.dump_fragment(frag)
        again = wire.load_fragment(blob)
        assert wire.dump_fragment(again) == blob
        assert np.array_equal(again.shares, frag.shares)


def test_serialized_payload_size_accounting(rng):
    # body bytes (headers excluded) must equal padded payload + k * |pa|
    params = CodecParams(4, 2, 16)
    data = rng.randbytes(777)
    fragset = encode_data(data, params, rng)
    body = sum(
        len(wire.dump_fragment(f)) - wire.HEADER_SIZE - 4 for f in fragset
    )
    assert body == padded_length(len(data), params) + params.k * params.block_size


def test_truncation_and_bad_magic():
    blob = wire.dump_fragment(_tiny_fragment())
    with pytest.raises(ParameterError, match="truncated"):
        wire.load_fragment(blob[:10])
    with pytest.raises(ParameterError, match="truncated"):
        wire.load_fragment(blob[:-1])
    with pytest.raises(ParameterError, match="magic"):
        wire.load_fragment(b"XXXX" + blob[4:])
    with pytest.raises(ParameterError, match="trailing"):
        wire.load_fragment(blob + b"\x00")
    with pytest.raises(ParameterError, match="version"):
        wire.load_fragment(blob[:4] + b"\x02" + blob[5:])


def test_load_any_dispatch(rng):
    frag = list(encode_data(b"x" * 64, CodecParams(2, 2, 4), rng))[0]
    sss = baselines.sss_split(b"secret", 2, 3, rng)[0]
    ida = baselines.ida_split(b"twelve bytes", 3, 4)[1]
    ssms = baselines.ssms_split(b"hello there", 2, 2, rng)[0]
    aont = baselines.aont_rs_split(b"hello there", 2, 3, rng)[2]
    parity = parity_fragments([b"abcd", b"efgh"], ParityParams(2, 4))[1]
    for obj in (frag, sss, ida, ssms, aont, parity):
        blob = wire.dump_any(obj)
        again = wire.load_any(blob)
        assert type(again) is type(obj)
        assert wire.dump_any(again) == blob


def test_sss_x_consistency_check(rng):
    blob = bytearray(wire.dump_any(baselines.sss_split(b"s", 2, 3, rng)[0]))
    blob[wire.HEADER_SIZE] ^= 0x07  # corrupt the x byte
    with pytest.raises(ParameterError, match="x coordinate"):
        wire.load_sss_fragment(bytes(blob))
