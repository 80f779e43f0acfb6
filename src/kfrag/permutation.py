"""Secret permutations of mini-share positions.

A permutation array is a bijection on [0, size) stored one byte per entry,
which caps the usable block size at 256 mini-blocks.  Arrays are generated
with Fisher-Yates over a caller-supplied random source and never stored in
the clear: each array is XOR-split into additive shares, one per storage
site, and travels inside the fragments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import IntegrityError, ParameterError

MAX_POSITIONS = 256


@dataclass(frozen=True)
class PermutationArray:
    """A bijection on [0, len(entries)); entries[v] is the target position."""

    entries: bytes

    def __post_init__(self) -> None:
        n = len(self.entries)
        if not 2 <= n <= MAX_POSITIONS:
            raise ParameterError(f"permutation size {n} outside [2, {MAX_POSITIONS}]")
        if sorted(self.entries) != list(range(n)):
            raise IntegrityError("entries are not a bijection")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PermutationShare:
    """One additive (XOR) share of a permutation array.

    ``array_index`` (r) names the permutation array the share belongs to and
    ``share_index`` (z) its position among the array's shares.
    """

    entries: bytes
    array_index: int
    share_index: int

    def __len__(self) -> int:
        return len(self.entries)


def generate_permutations(
    k: int, c: int, num_positions: int, rng: random.Random
) -> list[PermutationArray]:
    """Generate k/c independent uniform permutations of [0, num_positions)."""
    if c < 2:
        raise ParameterError(f"c must be at least 2, got {c}")
    if k < c or k % c != 0:
        raise ParameterError(f"k must be a multiple of c, got k={k}, c={c}")
    if not 2 <= num_positions <= MAX_POSITIONS:
        raise ParameterError(
            f"num_positions must be in [2, {MAX_POSITIONS}], got {num_positions}"
        )
    out = []
    for _ in range(k // c):
        entries = list(range(num_positions))
        # Fisher-Yates; randrange does a rejection-sampled uniform draw
        for i in range(num_positions - 1, 0, -1):
            j = rng.randrange(i + 1)
            entries[i], entries[j] = entries[j], entries[i]
        out.append(PermutationArray(bytes(entries)))
    return out


def split_permutation(
    pa: PermutationArray, c: int, rng: random.Random, array_index: int = 0
) -> list[PermutationShare]:
    """XOR-split an array into c shares whose XOR reconstructs it exactly.

    Shares 0..c-2 are fresh uniform bytes; the last share is the array XORed
    with all of them.  Any subset of fewer than c shares is independent of
    the array.
    """
    if c < 2:
        raise ParameterError(f"c must be at least 2, got {c}")
    n = len(pa)
    shares = [rng.randbytes(n) for _ in range(c - 1)]
    last = bytearray(pa.entries)
    for share in shares:
        for i, b in enumerate(share):
            last[i] ^= b
    shares.append(bytes(last))
    return [
        PermutationShare(entries=s, array_index=array_index, share_index=z)
        for z, s in enumerate(shares)
    ]


def reconstruct_permutation(shares: list[PermutationShare], c: int) -> PermutationArray:
    """XOR c shares back into the array, validating it is a bijection."""
    if len(shares) != c:
        raise ParameterError(f"expected {c} shares, got {len(shares)}")
    sizes = {len(s) for s in shares}
    if len(sizes) != 1:
        raise ParameterError(f"share lengths differ: {sorted(sizes)}")
    arrays = {s.array_index for s in shares}
    if len(arrays) != 1:
        raise ParameterError(f"shares belong to different arrays: {sorted(arrays)}")
    if sorted(s.share_index for s in shares) != list(range(c)):
        raise ParameterError("share indices must cover 0..c-1 exactly once")
    acc = bytearray(len(shares[0]))
    for share in shares:
        for i, b in enumerate(share.entries):
            acc[i] ^= b
    try:
        return PermutationArray(bytes(acc))
    except IntegrityError:
        raise IntegrityError("corrupted permutation shares") from None
