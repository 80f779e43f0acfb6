"""Binary fragment file formats.

Every file starts with the same 22-byte big-endian header:

    magic 4s | version u8 | k u16 | c u8 | j u16 | block_size u16 |
    payload_length u64 | r u8 | z u8

The magic selects the scheme, and the file extension is "." plus the magic
in lower case.  For the keyless codec ("KFRG") the header fields carry their
literal meaning and the body is the permutation share followed by a u32
share count and the raw shares; ``dump_fragment`` writes it and
``load_fragment`` reads it back as a view of the file's bytes.  A split
that encodes its payload a chunk at a time dumps each file a piece at a
time: the piece of a chunk's fragment, or of its parity row, is its bytes
in the file, the head before the first.

``_FORMATS`` is the scheme table, one row per magic; ``SCHEMES`` indexes
the rows of the five schemes by ``SchemeId``, and ``FORMAT_OF`` every row
by its fragment type.  A row holds the fragment type, the body layout, the
scheme (none for the parity files, "KPAR"), its ``split`` and ``join``, the
cipher and digest its manifest records, and whether parity files may follow
its files.  The keyless codec's row has no layout: ``dump_fragment`` and
``load_fragment`` are the one exception to the table's ``dump`` and
``load``, which write and read the baseline schemes (SSS, IDA, SSMS,
AONT-RS) and the parity files (the coefficient row that combined the k
primary files plus the combined bytes).  Each of their rows names the
attribute in the header's j slot (``index``, or ``row_index`` for parity)
and in its length slot (``payload_length``, or ``primary_length`` for
parity), and the body fields in file order.  The c slot carries the total
fragment count n, and block_size, r and z are zero.  A body field is one of
three kinds:

- ``_ROW``: k raw bytes (the dispersal-matrix row of IDA and SSMS);
- ``_INT``, w: a w-byte big-endian unsigned integer;
- ``_BLOB``, w: a byte string after its w-byte length (w = 1, 2 or 4).

All formats are bit-exact: any header deviation inside one fragment set is
a decode parameter error.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from . import baselines
from .baselines import SchemeId
from .codec import CodecParams, Fragment, encode_data, padded_length
from .erasure import ParityFragment
from .errors import ParameterError
from .permutation import MAX_POSITIONS, PermutationShare

MAGIC_PROPOSED = b"KFRG"
MAGIC_SSS = b"KSSS"
MAGIC_IDA = b"KIDA"
MAGIC_SSMS = b"KSMS"
MAGIC_AONT = b"KANT"
MAGIC_PARITY = b"KPAR"

VERSION = 1

_HEADER = struct.Struct(">4sBHBHHQBB")
HEADER_SIZE = _HEADER.size  # 22
# the longest head of a fragment file: header, permutation share and share count;
# a parity file's head, with its at most 254 coefficients, is no longer
HEAD = HEADER_SIZE + MAX_POSITIONS + 4


def _unpack_header(buf: bytes, magics) -> tuple:
    if len(buf) < HEADER_SIZE:
        raise ParameterError("truncated fragment: header incomplete")
    magic, version, k, c, j, block_size, payload_length, r, z = _HEADER.unpack_from(buf)
    if magic not in magics:
        expected = " or ".join(repr(m) for m in magics)
        raise ParameterError(f"bad magic {magic!r}, expected {expected}")
    if version != VERSION:
        raise ParameterError(f"unsupported version {version}")
    if k < 1:
        raise ParameterError("k must be positive")
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

    def bytes(self, n: int, view: bool = False) -> bytes | memoryview:
        start = self.skip(n)
        piece = memoryview(self.buf)[start : start + n]  # of any buffer kind
        return piece if view else bytes(piece)

    def uint(self, width: int) -> int:
        return int.from_bytes(self.bytes(width), "big")

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise ParameterError("trailing bytes after fragment body")


# -- keyless codec fragments -------------------------------------------------


def dump_fragment(frag: Fragment, out: np.ndarray | None = None) -> memoryview:
    """The fragment's file, read-only, in one numpy buffer filled in place, or in the
    start of the uint8 buffer ``out``; for a fragment of a chunk of share rows, the
    piece of the file that holds them."""
    p = frag.params
    ps = frag.permutation_share
    prefix = b""
    if frag.first_row == 0:
        head = _HEADER.pack(
            MAGIC_PROPOSED,
            VERSION,
            p.k,
            p.c,
            frag.index,
            p.block_size,
            frag.payload_length,
            ps.array_index,
            ps.share_index,
        )
        # the fragment of a first chunk holds fewer rows than its file
        count = max(frag.num_shares, padded_length(frag.payload_length, p) // p.group_size)
        prefix = b"".join([head, ps.entries, count.to_bytes(4, "big")])
    size = len(prefix) + frag.shares.size
    out = np.empty(size, dtype=np.uint8) if out is None else out[:size]
    out[: len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    out[len(prefix) :].reshape(frag.shares.shape)[...] = frag.shares
    out.setflags(write=False)
    return memoryview(out)


def load_fragment(buf: bytes) -> Fragment:
    _, k, c, j, block_size, payload_length, r, z = _unpack_header(buf, (MAGIC_PROPOSED,))
    rd = _Reader(buf, HEADER_SIZE)
    entries = rd.bytes(block_size)
    count = rd.uint(4)
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


# -- the scheme table ----------------------------------------------------------

_ROW, _INT, _BLOB = "row", "int", "blob"


class _Format(NamedTuple):
    cls: type
    body: list | None  # (attribute, kind, width) in file order; None for the keyless codec
    scheme: SchemeId | None = None  # None for the parity files
    # split(data, k, n, c, block_size, rng) returns the fragments, without parity;
    # join(fragments) returns the data, or is None where cli.join_pieces decodes
    # the fragments a segment at a time
    split: Callable | None = None
    join: Callable | None = None
    cipher: str | None = None  # the primitives the manifest records
    digest: str | None = None
    parity: bool = False  # whether parity files may follow the scheme's files
    j: str = "index"  # the attribute in the header's j slot
    length: str = "payload_length"  # the attribute in the header's length slot


# the baselines run with n fragments of which any k recover; c and the block
# size belong to the proposed scheme alone
_DATA = ("data", _BLOB, 4)
_FORMATS = {
    MAGIC_PROPOSED: _Format(
        Fragment, None, SchemeId.PROPOSED,
        lambda data, k, n, c, block_size, rng: list(
            encode_data(data, CodecParams(k=k, c=c, block_size=block_size), rng)),
        parity=True,
    ),
    MAGIC_SSS: _Format(
        baselines.SssFragment, [("x", _INT, 1), _DATA], SchemeId.SSS,
        lambda data, k, n, c, block_size, rng: baselines.sss_split(data, k, n, rng),
        lambda frags: baselines.sss_reconstruct(frags, frags[0].k),
    ),
    MAGIC_IDA: _Format(
        baselines.IdaFragment, [("row", _ROW, 0), _DATA], SchemeId.IDA,
        lambda data, k, n, c, block_size, rng: baselines.ida_split(data, k, n),
        baselines.ida_reconstruct,
    ),
    MAGIC_SSMS: _Format(
        baselines.SsmsFragment,
        [("row", _ROW, 0), ("key_x", _INT, 1), ("key_share", _BLOB, 2), ("nonce", _BLOB, 1), _DATA],
        SchemeId.SSMS,
        lambda data, k, n, c, block_size, rng: baselines.ssms_split(data, k, n, rng),
        baselines.ssms_reconstruct,
        cipher="aes-128-ctr",
    ),
    MAGIC_AONT: _Format(
        baselines.AontFragment,
        [("key_length", _INT, 2), ("package_length", _INT, 8), ("nonce", _BLOB, 1), _DATA],
        SchemeId.AONT_RS,
        lambda data, k, n, c, block_size, rng: baselines.aont_rs_split(data, k, n, rng),
        baselines.aont_rs_reconstruct,
        cipher="aes-128-ctr",
        digest="sha-256",
    ),
    MAGIC_PARITY: _Format(
        ParityFragment, [("coefficients", _BLOB, 2), _DATA], j="row_index", length="primary_length"
    ),
}
_MAGICS = {fmt.cls: magic for magic, fmt in _FORMATS.items()}
# each fragment type's row, and each scheme's
FORMAT_OF = {fmt.cls: fmt for fmt in _FORMATS.values()}
SCHEMES = {fmt.scheme: fmt for fmt in _FORMATS.values() if fmt.scheme}


def dump(frag, tail: int | None = None) -> bytes:
    """Serialize a baseline or parity fragment through its table row; with ``tail``,
    its last blob holds the first bytes of one of ``tail`` bytes, its length."""
    magic = _MAGICS[type(frag)]
    fmt = _FORMATS[magic]
    parts = [
        _HEADER.pack(
            magic, VERSION, frag.k, frag.n, getattr(frag, fmt.j), 0, getattr(frag, fmt.length), 0, 0
        )
    ]
    for name, kind, width in fmt.body:
        value = getattr(frag, name)
        if kind == _INT:
            value = value.to_bytes(width, "big")
        elif kind == _BLOB:
            last = tail is not None and name == fmt.body[-1][0]
            parts.append((tail if last else len(value)).to_bytes(width, "big"))
        parts.append(value)
    return b"".join(parts)


def load(buf: bytes, magics=tuple(m for m, fmt in _FORMATS.items() if fmt.body)):
    """Deserialize a baseline or parity file whose magic is one of ``magics``; its
    ``data`` is a view of ``buf``, not a copy, as ``load_fragment``'s shares are."""
    magic, k, n, j, _, length, _, _ = _unpack_header(buf, magics)
    fmt = _FORMATS[magic]
    rd = _Reader(buf, HEADER_SIZE)
    values = {"k": k, "n": n, fmt.length: length}
    for name, kind, width in fmt.body:
        if kind == _ROW:
            values[name] = rd.bytes(k)
        elif kind == _INT:
            values[name] = rd.uint(width)
        else:
            values[name] = rd.bytes(rd.uint(width), view=(name, kind, width) == _DATA)
    rd.done()
    if fmt.j in {f.name for f in fields(fmt.cls)}:
        values[fmt.j] = j
    frag = fmt.cls(**values)
    if getattr(frag, fmt.j) != j:  # SSS derives its index from its x coordinate
        raise ParameterError("x coordinate disagrees with fragment index")
    return frag


def dump_parity_fragment(frag: ParityFragment) -> bytes:
    """A parity file; for a piece of a parity row, the piece of the file that holds it."""
    return frag.data if frag.offset else dump(frag, frag.primary_length)


def load_parity_fragment(buf: bytes) -> ParityFragment:
    return load(buf, (MAGIC_PARITY,))


# dump_any and load_any look the functions up here, so that replacing an
# entry reroutes every call of that format
_DUMPERS = {**dict.fromkeys(_MAGICS, dump), Fragment: dump_fragment,
            ParityFragment: dump_parity_fragment}
_LOADERS = {**dict.fromkeys(_FORMATS, load), MAGIC_PROPOSED: load_fragment,
            MAGIC_PARITY: load_parity_fragment}
EXTENSIONS = {magic: "." + magic.decode().lower() for magic in _LOADERS}


def dump_any(frag) -> bytes | memoryview:
    """Serialize any fragment type to its wire form."""
    dumper = _DUMPERS.get(type(frag))
    if dumper is None:
        raise ParameterError(f"cannot serialize {type(frag).__name__}")
    return dumper(frag)


def load_any(buf: bytes):
    """Deserialize a fragment file of any scheme, dispatching on the magic."""
    return _LOADERS[_unpack_header(buf, _LOADERS)[0]](buf)
