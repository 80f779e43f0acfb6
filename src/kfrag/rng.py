"""Random sources.

The default source is the operating system CSPRNG (``random.SystemRandom``),
which is required for permutation secrecy.  A seeded Mersenne-Twister source
can be forced through ``FRAG_RNG_SEED`` for reproducible runs; it is meant
for tests and golden files only and must never be used to protect real data.
"""

from __future__ import annotations

import os
import random

ENV_SEED = "FRAG_RNG_SEED"


def rng_from_env() -> random.Random:
    """The system CSPRNG, or a seeded PRNG when FRAG_RNG_SEED is set (test-only)."""
    raw = os.environ.get(ENV_SEED)
    return random.SystemRandom() if raw is None else random.Random(int(raw))
