"""Damaged fragment files end in a FragmentationError, never in another exception.

Every scheme's files, and the proposed scheme's parity files, are damaged by
bit flips, truncation, header-byte overwrites, appended bytes and dropped
files, then loaded with ``cli.load_files`` and joined with ``cli.join_pieces``, as
``kfrag join --frags`` does: the parity files rebuild lost fragment files
with one ``rs_decode`` call, and the fragments join in decode segments, or
through the scheme table for a baseline.  Files that no longer
parse with ``wire.load_any`` are left out of the join, so the join also sees
sets short of their threshold.  A damaged
set may still join to wrong bytes: only fragments with a digest in the
manifest are checked for that.
"""

import random

from hypothesis import given, settings, strategies as st

from kfrag import cli, wire
from kfrag.baselines import SchemeId
from kfrag.erasure import ParityParams, parity_fragments
from kfrag.errors import FragmentationError

MUTATIONS = ("flip", "truncate", "header", "append", "drop")


def _files(scheme: SchemeId) -> list[bytes]:
    rng = random.Random(5)
    k, n = (4, 4) if scheme is SchemeId.PROPOSED else (2, 3)
    frags = cli.split(scheme, rng.randbytes(300), k, n, 2, 16, rng)
    blobs = [wire.dump_any(f) for f in frags]
    if scheme is SchemeId.PROPOSED:
        parity = parity_fragments(blobs, ParityParams(k=4, n=6))
        blobs += [wire.dump_parity_fragment(p) for p in parity]
    return blobs


FILES = {scheme: _files(scheme) for scheme in SchemeId}


@st.composite
def damaged_sets(draw) -> list[bytes]:
    blobs = [bytearray(b) for b in FILES[draw(st.sampled_from(list(SchemeId)))]]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(blobs) - 1))
        blob, mutation = blobs[i], draw(st.sampled_from(MUTATIONS))
        if not blob and mutation in ("flip", "truncate", "header"):
            continue  # nothing left to damage in place
        if mutation == "flip":
            bit = draw(st.integers(0, 8 * len(blob) - 1))
            blob[bit // 8] ^= 1 << (bit % 8)
        elif mutation == "truncate":
            del blob[draw(st.integers(0, len(blob) - 1)) :]
        elif mutation == "header":
            at = draw(st.integers(0, min(len(blob), wire.HEADER_SIZE) - 1))
            blob[at] = draw(st.integers(0, 255))
        elif mutation == "append":
            blob += draw(st.binary(min_size=1, max_size=40))
        elif len(blobs) > 1:
            del blobs[i]
    return [bytes(b) for b in blobs]


@settings(max_examples=500)
@given(damaged_sets())
def test_damaged_files_raise_only_fragmentation_errors(blobs):
    parsed = []
    for blob in blobs:
        try:
            wire.load_any(blob)
        except FragmentationError:
            continue
        parsed.append(blob)
    try:
        _, pieces = cli.join_pieces(cli.load_files(parsed))
        b"".join(pieces)
    except FragmentationError:
        pass
