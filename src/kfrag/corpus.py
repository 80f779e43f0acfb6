"""Deterministic low-entropy sample data for analysis runs and tests.

Real corpora cannot ship with the toolkit, so this generator produces
text-like byte streams with the statistical profile that matters for the
security measurements: a small alphabet, strong letter-frequency skew, and
repeating structure.  Everything is seeded and reproducible.
"""

from __future__ import annotations

import random

_WORDS = (
    "the quick brown fox jumps over lazy dog and runs far away from home "
    "while every parcel waits inside a sorting office for its next truck "
    "please deliver this letter to the customer before friday morning "
    "tracking number received payment confirmed address verified thanks"
).split()

_PUNCT = [". ", ", ", " ", " ", " "]


def text_sample(size: int, seed: int = 0) -> bytes:
    """A text-like sample of exactly `size` bytes."""
    rng = random.Random(seed)
    parts: list[str] = []
    total = 0
    while total < size:
        sentence = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(5, 12)))
        piece = sentence + rng.choice(_PUNCT)
        parts.append(piece)
        total += len(piece)
    return "".join(parts).encode("ascii")[:size]

