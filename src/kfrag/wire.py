"""Binary fragment file formats.

Every file starts with the same 22-byte big-endian header:

    magic 4s | version u8 | k u16 | c u8 | j u16 | block_size u16 |
    payload_length u64 | r u8 | z u8

The magic selects the scheme.  For the keyless codec ("KFRG") the header
fields carry their literal meaning and the body is the permutation share
followed by a u32 share count and the raw shares.  Baseline schemes reuse
the header with the c slot carrying the total fragment count n and
block_size set to zero; their bodies carry scheme-specific trailers
(x-coordinate, dispersal matrix row, key share, cipher nonce) ahead of a
u32-length data section.  Parity files ("KPAR") carry the coefficient row
used to combine the k primary files.

All formats are bit-exact: any header deviation inside one fragment set is
a decode parameter error.
"""

from __future__ import annotations

import struct

import numpy as np

from . import baselines
from .codec import CodecParams, Fragment
from .erasure import ParityFragment
from .errors import ParameterError
from .permutation import PermutationShare

MAGIC_PROPOSED = b"KFRG"
MAGIC_SSS = b"KSSS"
MAGIC_IDA = b"KIDA"
MAGIC_SSMS = b"KSMS"
MAGIC_AONT = b"KANT"
MAGIC_PARITY = b"KPAR"

VERSION = 1

_HEADER = struct.Struct(">4sBHBHHQBB")
HEADER_SIZE = _HEADER.size  # 22

EXTENSIONS = {
    MAGIC_PROPOSED: ".kfrg",
    MAGIC_SSS: ".ksss",
    MAGIC_IDA: ".kida",
    MAGIC_SSMS: ".ksms",
    MAGIC_AONT: ".kant",
    MAGIC_PARITY: ".kpar",
}


def _pack_header(
    magic: bytes, k: int, c: int, j: int, block_size: int, payload_length: int, r: int, z: int
) -> bytes:
    return _HEADER.pack(magic, VERSION, k, c, j, block_size, payload_length, r, z)


def _unpack_header(buf: bytes, expect_magic: bytes | None = None) -> tuple:
    if len(buf) < HEADER_SIZE:
        raise ParameterError("truncated fragment: header incomplete")
    magic, version, k, c, j, block_size, payload_length, r, z = _HEADER.unpack_from(buf)
    if expect_magic is not None and magic != expect_magic:
        raise ParameterError(f"bad magic {magic!r}, expected {expect_magic!r}")
    if magic not in EXTENSIONS:
        raise ParameterError(f"unknown magic {magic!r}")
    if version != VERSION:
        raise ParameterError(f"unsupported version {version}")
    return magic, k, c, j, block_size, payload_length, r, z


class _Reader:
    def __init__(self, buf: bytes, offset: int):
        self.buf = buf
        self.pos = offset

    def skip(self, n: int) -> int:
        """Step over the next n bytes and return their offset."""
        if self.pos + n > len(self.buf):
            raise ParameterError("truncated fragment: body incomplete")
        self.pos += n
        return self.pos - n

    def bytes(self, n: int) -> bytes:
        start = self.skip(n)
        return self.buf[start : start + n]

    def u8(self) -> int:
        return self.bytes(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.bytes(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.bytes(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.bytes(8), "big")

    def blob32(self) -> bytes:
        return self.bytes(self.u32())

    def blob8(self) -> bytes:
        return self.bytes(self.u8())

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise ParameterError("trailing bytes after fragment body")


def _u32(n: int) -> bytes:
    return n.to_bytes(4, "big")


def _u16(n: int) -> bytes:
    return n.to_bytes(2, "big")


def _u8(n: int) -> bytes:
    return n.to_bytes(1, "big")


# -- keyless codec fragments -------------------------------------------------


def dump_fragment(frag: Fragment) -> bytes:
    p = frag.params
    ps = frag.permutation_share
    head = _pack_header(
        MAGIC_PROPOSED,
        p.k,
        p.c,
        frag.index,
        p.block_size,
        frag.payload_length,
        ps.array_index,
        ps.share_index,
    )
    return b"".join(
        [head, ps.entries, _u32(frag.num_shares), frag.shares.tobytes()]
    )


def load_fragment(buf: bytes) -> Fragment:
    _, k, c, j, block_size, payload_length, r, z = _unpack_header(buf, MAGIC_PROPOSED)
    rd = _Reader(buf, HEADER_SIZE)
    entries = rd.bytes(block_size)
    count = rd.u32()
    size = count * block_size
    # a view of buf, not a copy; Fragment makes it read-only
    shares = np.frombuffer(buf, dtype=np.uint8, count=size, offset=rd.skip(size))
    rd.done()
    return Fragment(
        index=j,
        params=CodecParams(k=k, c=c, block_size=block_size),
        permutation_share=PermutationShare(entries=entries, array_index=r, share_index=z),
        shares=shares.reshape(count, block_size),
        payload_length=payload_length,
    )


# -- baseline fragments -------------------------------------------------------


def dump_sss_fragment(frag: baselines.SssFragment) -> bytes:
    head = _pack_header(MAGIC_SSS, frag.k, frag.n, frag.x - 1, 0, frag.payload_length, 0, 0)
    return b"".join([head, _u8(frag.x), _u32(len(frag.data)), frag.data])


def load_sss_fragment(buf: bytes) -> baselines.SssFragment:
    _, k, n, j, _, payload_length, _, _ = _unpack_header(buf, MAGIC_SSS)
    rd = _Reader(buf, HEADER_SIZE)
    x = rd.u8()
    data = rd.blob32()
    rd.done()
    if x != j + 1:
        raise ParameterError("x coordinate disagrees with fragment index")
    return baselines.SssFragment(x=x, data=data, k=k, n=n, payload_length=payload_length)


def dump_ida_fragment(frag: baselines.IdaFragment) -> bytes:
    head = _pack_header(MAGIC_IDA, frag.k, frag.n, frag.index, 0, frag.payload_length, 0, 0)
    return b"".join([head, frag.row, _u32(len(frag.data)), frag.data])


def load_ida_fragment(buf: bytes) -> baselines.IdaFragment:
    _, k, n, j, _, payload_length, _, _ = _unpack_header(buf, MAGIC_IDA)
    rd = _Reader(buf, HEADER_SIZE)
    row = rd.bytes(k)
    data = rd.blob32()
    rd.done()
    return baselines.IdaFragment(
        index=j, row=row, data=data, k=k, n=n, payload_length=payload_length
    )


def dump_ssms_fragment(frag: baselines.SsmsFragment) -> bytes:
    head = _pack_header(MAGIC_SSMS, frag.k, frag.n, frag.index, 0, frag.payload_length, 0, 0)
    return b"".join(
        [
            head,
            frag.row,
            _u8(frag.key_x),
            _u16(len(frag.key_share)),
            frag.key_share,
            _u8(len(frag.nonce)),
            frag.nonce,
            _u32(len(frag.data)),
            frag.data,
        ]
    )


def load_ssms_fragment(buf: bytes) -> baselines.SsmsFragment:
    _, k, n, j, _, payload_length, _, _ = _unpack_header(buf, MAGIC_SSMS)
    rd = _Reader(buf, HEADER_SIZE)
    row = rd.bytes(k)
    key_x = rd.u8()
    key_share = rd.bytes(rd.u16())
    nonce = rd.blob8()
    data = rd.blob32()
    rd.done()
    return baselines.SsmsFragment(
        index=j,
        row=row,
        key_x=key_x,
        key_share=key_share,
        nonce=nonce,
        data=data,
        k=k,
        n=n,
        payload_length=payload_length,
    )


def dump_aont_fragment(frag: baselines.AontFragment) -> bytes:
    head = _pack_header(MAGIC_AONT, frag.k, frag.n, frag.index, 0, frag.payload_length, 0, 0)
    return b"".join(
        [
            head,
            _u16(frag.key_length),
            frag.package_length.to_bytes(8, "big"),
            _u8(len(frag.nonce)),
            frag.nonce,
            _u32(len(frag.data)),
            frag.data,
        ]
    )


def load_aont_fragment(buf: bytes) -> baselines.AontFragment:
    _, k, n, j, _, payload_length, _, _ = _unpack_header(buf, MAGIC_AONT)
    rd = _Reader(buf, HEADER_SIZE)
    key_length = rd.u16()
    package_length = rd.u64()
    nonce = rd.blob8()
    data = rd.blob32()
    rd.done()
    return baselines.AontFragment(
        index=j,
        data=data,
        k=k,
        n=n,
        payload_length=payload_length,
        package_length=package_length,
        key_length=key_length,
        nonce=nonce,
    )


# -- parity fragments ----------------------------------------------------------


def dump_parity_fragment(frag: ParityFragment) -> bytes:
    head = _pack_header(
        MAGIC_PARITY, frag.k, frag.n, frag.row_index, 0, frag.primary_length, 0, 0
    )
    return b"".join(
        [head, _u16(len(frag.coefficients)), frag.coefficients, _u32(len(frag.data)), frag.data]
    )


def load_parity_fragment(buf: bytes) -> ParityFragment:
    _, k, n, j, _, primary_length, _, _ = _unpack_header(buf, MAGIC_PARITY)
    rd = _Reader(buf, HEADER_SIZE)
    coefficients = rd.bytes(rd.u16())
    data = rd.blob32()
    rd.done()
    return ParityFragment(
        row_index=j,
        coefficients=coefficients,
        data=data,
        k=k,
        n=n,
        primary_length=primary_length,
    )


_LOADERS = {
    MAGIC_PROPOSED: load_fragment,
    MAGIC_SSS: load_sss_fragment,
    MAGIC_IDA: load_ida_fragment,
    MAGIC_SSMS: load_ssms_fragment,
    MAGIC_AONT: load_aont_fragment,
    MAGIC_PARITY: load_parity_fragment,
}

_DUMPERS = {
    Fragment: dump_fragment,
    baselines.SssFragment: dump_sss_fragment,
    baselines.IdaFragment: dump_ida_fragment,
    baselines.SsmsFragment: dump_ssms_fragment,
    baselines.AontFragment: dump_aont_fragment,
    ParityFragment: dump_parity_fragment,
}


def dump_any(frag) -> bytes:
    """Serialize any fragment type to its wire form."""
    dumper = _DUMPERS.get(type(frag))
    if dumper is None:
        raise ParameterError(f"cannot serialize {type(frag).__name__}")
    return dumper(frag)


def load_any(buf: bytes):
    """Deserialize a fragment file of any scheme, dispatching on the magic."""
    return _LOADERS[_unpack_header(buf)[0]](buf)
