import random
import tracemalloc

import numpy as np
import pytest

from kfrag import baselines, cli, wire
from kfrag.baselines import SchemeId
from kfrag.codec import CodecParams, Fragment, encode_data, padded_length
from kfrag.erasure import ParityFragment, ParityParams, parity_fragments
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


# one small file of each table format; the header's c slot holds n, and its
# block size, r and z slots are zero
GOLDEN_TABLE = {
    "sss": (
        baselines.SssFragment(x=2, data=bytes([0x10, 0x20, 0x30]), k=2, n=3, payload_length=3),
        "4b535353"  # "KSSS"
        "01"        # version
        "0002"      # k
        "03"        # n
        "0001"      # j = x - 1
        "0000"      # block size
        "0000000000000003"  # payload length
        "00"        # r
        "00"        # z
        "02"        # x
        "00000003"  # data length
        "102030",   # data
    ),
    "ida": (
        baselines.IdaFragment(
            index=1, row=bytes([0x01, 0x02]), data=bytes([0xAB, 0xCD]), k=2, n=3, payload_length=4
        ),
        "4b494441"  # "KIDA"
        "01"        # version
        "0002"      # k
        "03"        # n
        "0001"      # j = index
        "0000"      # block size
        "0000000000000004"  # payload length
        "00"        # r
        "00"        # z
        "0102"      # matrix row, k bytes
        "00000002"  # data length
        "abcd",     # data
    ),
    "ssms": (
        baselines.SsmsFragment(
            index=0,
            row=bytes([0x01, 0x00]),
            key_x=1,
            key_share=bytes([0x11, 0x22]),
            nonce=bytes([0x33]),
            data=bytes([0x44, 0x55]),
            k=2,
            n=2,
            payload_length=2,
        ),
        "4b534d53"  # "KSMS"
        "01"        # version
        "0002"      # k
        "02"        # n
        "0000"      # j = index
        "0000"      # block size
        "0000000000000002"  # payload length
        "00"        # r
        "00"        # z
        "0100"      # matrix row, k bytes
        "01"        # key x
        "0002"      # key share length
        "1122"      # key share
        "01"        # nonce length
        "33"        # nonce
        "00000002"  # data length
        "4455",     # data
    ),
    "aont": (
        baselines.AontFragment(
            index=2,
            data=bytes([0x66]),
            k=2,
            n=3,
            payload_length=1,
            package_length=0x0102,
            key_length=16,
            nonce=bytes([0x77, 0x88]),
        ),
        "4b414e54"  # "KANT"
        "01"        # version
        "0002"      # k
        "03"        # n
        "0002"      # j = index
        "0000"      # block size
        "0000000000000001"  # payload length
        "00"        # r
        "00"        # z
        "0010"      # key length
        "0000000000000102"  # package length
        "02"        # nonce length
        "7788"      # nonce
        "00000001"  # data length
        "66",       # data
    ),
    "parity": (
        ParityFragment(
            row_index=1,
            coefficients=bytes([0x03, 0x05]),
            data=bytes([0x99, 0xAA]),
            k=2,
            n=4,
            primary_length=2,
        ),
        "4b504152"  # "KPAR"
        "01"        # version
        "0002"      # k
        "04"        # n
        "0001"      # j = parity row index
        "0000"      # block size
        "0000000000000002"  # primary file length
        "00"        # r
        "00"        # z
        "0002"      # coefficient count
        "0305"      # coefficients
        "00000002"  # data length
        "99aa",     # data
    ),
}


@pytest.mark.parametrize("name", GOLDEN_TABLE)
def test_table_format_golden_bytes(name):
    frag, golden = GOLDEN_TABLE[name]
    assert wire.dump_any(frag) == bytes.fromhex(golden)


@pytest.mark.parametrize("name", GOLDEN_TABLE)
def test_table_format_golden_load(name):
    frag, golden = GOLDEN_TABLE[name]
    again = wire.load_any(bytes.fromhex(golden))
    assert type(again) is type(frag)
    assert again == frag


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
    blob = bytes(wire.dump_fragment(_tiny_fragment()))
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


def test_load_fragment_views_the_shares_without_copying(rng):
    params = CodecParams(2, 2, 250)
    frag = list(encode_data(rng.randbytes(1 << 20), params, rng))[0]
    blob = wire.dump_fragment(frag)
    tracemalloc.start()
    try:
        again = wire.load_fragment(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(again.shares, np.frombuffer(blob, dtype=np.uint8))
    assert not again.shares.flags.writeable
    assert np.array_equal(again.shares, frag.shares)
    assert peak < frag.shares.nbytes // 4


def test_a_parity_file_loads_its_data_as_a_view_without_copying(rng):
    data = rng.randbytes(4 << 20)
    row = ParityFragment(row_index=1, coefficients=bytes([1, 2, 3, 4]), data=data, k=4, n=6,
                         primary_length=len(data))
    blob = np.frombuffer(wire.dump_parity_fragment(row), dtype=np.uint8).copy()
    blob.setflags(write=False)
    tracemalloc.start()
    try:
        again = wire.load_parity_fragment(memoryview(blob))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(data) // 16
    assert again == row
    assert np.shares_memory(np.frombuffer(again.data, dtype=np.uint8), blob)


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


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_every_scheme_round_trips_through_its_row(rng, scheme):
    # the path of kfrag split and join --frags: the row's split, the wire, the
    # one join; the baselines from the last k of n files
    data = rng.randbytes(5000)
    k, n = (4, 4) if scheme is SchemeId.PROPOSED else (3, 5)
    frags = cli.split(scheme, data, k, n, 2, 34, rng)
    assert len(frags) == n and {type(f) for f in frags} == {wire.SCHEMES[scheme].cls}
    loaded = [wire.load_any(wire.dump_any(f)) for f in frags]
    length, pieces = cli.join_pieces(loaded[n - k :])
    assert length == len(data)
    assert b"".join(pieces) == data


def test_the_dispatch_tables_cover_every_row():
    assert set(wire.SCHEMES) == set(SchemeId)
    assert all(fmt.scheme is scheme for scheme, fmt in wire.SCHEMES.items())
    assert set(wire._LOADERS) == set(wire.EXTENSIONS) == set(wire._FORMATS)
    assert set(wire._DUMPERS) == set(wire.FORMAT_OF) == {f.cls for f in wire._FORMATS.values()}
    # the parity files belong to no scheme and follow only the proposed scheme's
    assert wire._FORMATS[wire.MAGIC_PARITY].scheme is None
    assert [s for s, fmt in wire.SCHEMES.items() if fmt.parity] == [SchemeId.PROPOSED]


def test_sss_x_consistency_check(rng):
    blob = bytearray(wire.dump_any(baselines.sss_split(b"s", 2, 3, rng)[0]))
    blob[wire.HEADER_SIZE] ^= 0x07  # corrupt the x byte
    with pytest.raises(ParameterError, match="x coordinate"):
        wire.load_any(bytes(blob))


def test_the_pieces_of_a_payload_encoded_in_chunks_join_to_its_files(rng):
    # two chunks of 254 rows and a tail of 101; parity over the data files, piece by piece
    params = CodecParams(4, 2, 16)
    m = params.group_size
    data = rng.randbytes(2 * 254 * m + 100 * m + 7)
    whole = encode_data(data, params, random.Random(3))
    files = [wire.dump_fragment(f) for f in whole]
    parity = ParityParams(4, 6)
    parity_files = [wire.dump_parity_fragment(p) for p in parity_fragments(files, parity)]
    draws, after, offset = random.Random(3), (), 0
    pieces = [[] for _ in range(6)]
    scratch = np.empty((4, 10 * m * 254), dtype=np.uint8)
    for lo, hi in ((0, 254), (254, 508), (508, 609)):
        after = encode_data(data[lo * m : hi * m], params, draws, after, len(data))
        got = [wire.dump_fragment(f, scratch[j]) for j, f in enumerate(after)]
        got += [wire.dump_parity_fragment(p)
                for p in parity_fragments(got, parity, offset, len(files[0]))]
        offset += len(got[0])
        for piece, out in zip(got, pieces):
            out.append(bytes(piece))
    assert [b"".join(p) for p in pieces] == [bytes(f) for f in files + parity_files]
