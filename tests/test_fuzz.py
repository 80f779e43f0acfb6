"""Damaged fragment files make ``kfrag join --frags`` exit with a documented code,
never with a traceback.

Every scheme's files, and the proposed scheme's parity files, are damaged by
bit flips, truncation, header-byte overwrites, appended bytes and dropped
files, written to a directory and joined with ``kfrag join --frags`` through
``cli.main``: the proposed scheme's files through the streamed join, its
parity files rebuilding lost fragment files a piece at a time, and a
baseline's through the scheme table.  A dropped file leaves a set short of
its threshold.  Each join exits 0, 2, 3, 4 or 5, and raises nothing but
``SystemExit``.  A damaged set may still join to wrong bytes: only fragments
with a digest in the manifest are checked for that.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kfrag import cli, wire
from kfrag.baselines import SchemeId
from kfrag.erasure import ParityParams, parity_fragments

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
def test_damaged_files_exit_with_a_documented_code(blobs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, blob in enumerate(blobs):
            paths.append(Path(tmp, f"{i}.bin"))
            paths[-1].write_bytes(blob)
        with pytest.raises(SystemExit) as exited:
            cli.main(["join", "--frags", *map(str, paths), "--out", str(Path(tmp, "out.bin"))],
                     prog_name="kfrag")
    assert exited.value.code in (0, 2, 3, 4, 5)
