"""Systematic Reed-Solomon parity over k primary byte sequences.

The generator is a Vandermonde matrix over evaluation points 1..n brought to
systematic form [I | P] by multiplying with the inverse of its top k rows,
so the primary fragments are stored untouched and any k of the n total rows
recover everything.  Parity is an optional availability layer: it can wrap
any scheme's equal-length primary fragments (typically their serialized
files).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ThresholdError
from .gf256 import invert_matrix, matmul, power


def vandermonde(n: int, k: int) -> np.ndarray:
    """n x k matrix with rows [1, x, x^2, ...] over points x = 1..n."""
    if not 1 <= k <= n <= 255:
        raise ParameterError(f"need 1 <= k <= n <= 255, got k={k}, n={n}")
    out = np.empty((n, k), dtype=np.uint8)
    for t in range(n):
        for s in range(k):
            out[t, s] = power(t + 1, s)
    return out


def systematic_parity_rows(k: int, n: int) -> np.ndarray:
    """The (n-k) x k parity block P of the systematic generator [I | P]."""
    v = vandermonde(n, k)
    sys = matmul(v, invert_matrix(v[:k]))
    return sys[k:]


@dataclass(frozen=True)
class ParityParams:
    """Erasure-coding geometry; the parity matrix is derived from (k, n)."""

    k: int
    n: int
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n or self.n > 255:
            raise ParameterError(f"need 1 <= k < n <= 255, got k={self.k}, n={self.n}")
        rows = systematic_parity_rows(self.k, self.n)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class ParityFragment:
    """One parity row: coefficients plus the combined bytes."""

    row_index: int
    coefficients: bytes
    data: bytes
    k: int
    n: int
    primary_length: int

    @property
    def index(self) -> int:
        """Global fragment index of this parity row (after the k primaries)."""
        return self.k + self.row_index


def rs_encode(primary: list[bytes], params: ParityParams) -> list[bytes]:
    """Combine k equal-length sequences into n-k parity sequences."""
    if len(primary) != params.k:
        raise ParameterError(f"expected {params.k} primary sequences, got {len(primary)}")
    lengths = {len(p) for p in primary}
    if len(lengths) > 1:
        raise ParameterError(f"primary sequences differ in length: {sorted(lengths)}")
    arrays = [np.frombuffer(p, dtype=np.uint8) for p in primary]
    return [row.tobytes() for row in matmul(params.rows, arrays)]


def parity_fragments(primary: list[bytes], params: ParityParams) -> list[ParityFragment]:
    """rs_encode wrapped with the coefficient metadata needed for recovery."""
    parity = rs_encode(primary, params)
    return [
        ParityFragment(
            row_index=p,
            coefficients=params.rows[p].tobytes(),
            data=data,
            k=params.k,
            n=params.n,
            primary_length=len(primary[0]),
        )
        for p, data in enumerate(parity)
    ]


def rs_decode(available: list[tuple[int, bytes]], params: ParityParams) -> list[bytes]:
    """Recover the k primary sequences from any k of the n rows.

    ``available`` holds (index, data) pairs where indices < k name primary
    rows and indices >= k name parity rows.  Surviving primary rows are
    returned as given.
    """
    seen: dict[int, bytes] = {}
    for index, data in available:
        if not 0 <= index < params.n:
            raise ParameterError(f"fragment index {index} out of range [0, {params.n})")
        if index in seen:
            raise ParameterError(f"duplicate fragment index {index}")
        seen[index] = data
    if len(seen) < params.k:
        raise ThresholdError(
            f"erasure threshold not met: need {params.k} fragments, got {len(seen)}"
        )
    lengths = {len(d) for d in seen.values()}
    if len(lengths) > 1:
        raise ParameterError(f"fragment lengths differ: {sorted(lengths)}")

    chosen = sorted(seen)[: params.k]
    matrix = np.zeros((params.k, params.k), dtype=np.uint8)
    for row, index in enumerate(chosen):
        if index < params.k:
            matrix[row, index] = 1
        else:
            matrix[row] = params.rows[index - params.k]

    # a surviving primary row is its own inverse row: only lost ones are rebuilt
    lost = [s for s in range(params.k) if s not in seen]
    stack = [np.frombuffer(seen[idx], dtype=np.uint8) for idx in chosen]
    rebuilt = dict(zip(lost, matmul(invert_matrix(matrix)[lost], stack)))
    return [seen[s] if s in seen else rebuilt[s].tobytes() for s in range(params.k)]
