"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
per-criterion runtimes.  Statistical demonstrations (chi-squared passes,
calibration rate) pin their seeds so every run reproduces the recorded
realization; throughput criteria compare medians relatively and never
assert absolute MB/s.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kfrag import wire
from kfrag.analysis import (
    CHI2_CRITICAL,
    bit_difference,
    chi_squared,
    correlation,
    entropy,
    measurable_bytes,
)
from kfrag.baselines import SchemeId, ida_split, sss_split
from kfrag.bench import BenchConfig, run_bench
from kfrag.codec import CodecParams, decode_data, encode_data, padded_length
from kfrag.corpus import text_sample
from kfrag.dispersal import Violation, assign_sites, validate_assignment
from kfrag.erasure import ParityParams, rs_decode, rs_encode
from kfrag.errors import ThresholdError
from kfrag.gf256 import mul

import oracles


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:2d} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number:2d} ({title}): PASS  [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# 1. round-trip correctness
# ---------------------------------------------------------------------------


def test_c01_round_trip_grid():
    with criterion(1, "round-trip over 200 payloads x full parameter grid"):
        max_size = 4 << 20
        sizes = [max(1, round(max_size ** (i / 199))) for i in range(200)]
        master = np.random.default_rng(42).integers(
            0, 256, 2 * max_size, dtype=np.uint8
        ).tobytes()
        rng = random.Random(7)
        configs = [
            (k, c, bs)
            for (k, c) in [(2, 2), (4, 2), (8, 2), (6, 3), (12, 3)]
            for bs in (16, 34, 250)
        ]
        for k, c, bs in configs:
            params = CodecParams(k, c, bs)
            for i, size in enumerate(sizes):
                offset = (i * 997) % max_size
                data = master[offset : offset + size]
                assert decode_data(encode_data(data, params, rng)) == data, (
                    k, c, bs, size,
                )


# ---------------------------------------------------------------------------
# 2. threshold property
# ---------------------------------------------------------------------------


def test_c02_threshold_every_subset():
    with criterion(2, "any k-1 of k fragments fail with the threshold error"):
        rng = random.Random(2)
        frags = list(encode_data(rng.randbytes(4096), CodecParams(4, 2, 34), rng))
        for kept in itertools.combinations(frags, 3):
            with pytest.raises(ThresholdError):
                decode_data(list(kept))


# ---------------------------------------------------------------------------
# 3. toy-scale secrecy oracle
# ---------------------------------------------------------------------------


def test_c03_toy_scale_no_unique_completion():
    with criterion(3, "exhaustive missing-fragment enumeration, no unique plaintext"):
        params = CodecParams(2, 2, 2)
        rng = random.Random(123)
        payload = b"\x5a\xc3"
        frags = sorted(encode_data(payload, params, rng), key=lambda f: f.index)
        held, missing = frags[0], frags[1]

        # enumerate every value of the missing fragment's permutation share;
        # its data share is pinned by the zero padding once the share is
        # fixed, so this sweep covers all decode-relevant completions
        x = 2 + (1 % 254)
        plaintexts = []
        for cand in itertools.product(range(256), repeat=2):
            pa = bytes(a ^ b for a, b in zip(held.permutation_share.entries, cand))
            if sorted(pa) != [0, 1]:
                continue  # not a valid permutation, decode would reject it
            decoded = bytes(
                held.shares[0][pa[v]] ^ oracles.gf_mul(x, cand[v]) for v in range(2)
            )
            plaintexts.append(decoded)

        assert len(set(plaintexts)) >= 2, "completion must be ambiguous"
        assert payload in plaintexts
        assert plaintexts.count(payload) == 1  # unique only once d is known
        truth = tuple(missing.permutation_share.entries)
        assert truth in [
            tuple(c) for c in itertools.product(range(256), repeat=2)
            if sorted(a ^ b for a, b in zip(held.permutation_share.entries, c)) == [0, 1]
        ]


# ---------------------------------------------------------------------------
# 4. chi-squared on low-entropy text
# ---------------------------------------------------------------------------


def test_c04_chi_squared_text_corpus():
    with criterion(4, "chi-squared <= 293.2478 on 15 text samples, every fragment"):
        for i in range(15):
            data = text_sample(100_000, seed=1000 + i)
            rng = random.Random(60_000 + i)
            fragset = encode_data(data, CodecParams(2, 2, 34), rng)
            for frag in fragset:
                stat, ok = chi_squared(frag.shares.tobytes())
                assert ok, f"sample {i}, fragment {frag.index}: chi2 {stat:.1f}"


# ---------------------------------------------------------------------------
# 5. entropy vs the matrix-dispersal baseline
# ---------------------------------------------------------------------------


def test_c05_entropy_floor_and_ida_gap():
    with criterion(5, "fragment entropy >= 7.9 and strictly above matrix dispersal"):
        data = text_sample(100_000, seed=500)
        fragset = encode_data(data, CodecParams(4, 2, 34), random.Random(55))
        ours = [entropy(measurable_bytes(f)) for f in fragset]
        theirs = [entropy(f.data) for f in ida_split(data, 4, 4)]
        assert min(ours) >= 7.9
        assert min(ours) > max(theirs)


# ---------------------------------------------------------------------------
# 6. bit difference
# ---------------------------------------------------------------------------


def test_c06_bit_difference_band():
    with criterion(6, "bit differences inside [0.48, 0.52] on 100 KB input"):
        data = text_sample(100_000, seed=600)
        fragset = encode_data(data, CodecParams(2, 2, 34), random.Random(66))
        blobs = [measurable_bytes(f) for f in fragset]
        for blob in blobs:
            cut = min(len(blob), len(data))
            assert 0.48 <= bit_difference(blob[:cut], data[:cut]) <= 0.52
        assert 0.48 <= bit_difference(blobs[0], blobs[1]) <= 0.52


# ---------------------------------------------------------------------------
# 7. correlation
# ---------------------------------------------------------------------------


def test_c07_pairwise_correlation_small():
    with criterion(7, "all pairwise fragment correlations |r| < 0.05"):
        data = text_sample(100_000, seed=700)
        for (k, c) in [(4, 2), (6, 3)]:
            fragset = encode_data(data, CodecParams(k, c, 34), random.Random(77))
            blobs = [measurable_bytes(f) for f in fragset]
            for i, j in itertools.combinations(range(k), 2):
                assert abs(correlation(blobs[i], blobs[j])) < 0.05, (k, c, i, j)


# ---------------------------------------------------------------------------
# 8. pattern preservation contrast
# ---------------------------------------------------------------------------


def test_c08_periodic_input_ida_fails_ours_passes():
    with criterion(8, "periodic input: matrix dispersal fails chi-squared, ours passes"):
        data = oracles.periodic_sample(60_000, period=32, seed=4)
        for frag in ida_split(data, 4, 4):
            stat, ok = chi_squared(frag.data)
            assert not ok, f"matrix-dispersal fragment unexpectedly uniform: {stat:.1f}"
        fragset = encode_data(data, CodecParams(4, 2, 34), random.Random(88))
        for frag in fragset:
            stat, ok = chi_squared(frag.shares.tobytes())
            assert ok, f"fragment {frag.index}: chi2 {stat:.1f}"


# ---------------------------------------------------------------------------
# 9. storage overhead
# ---------------------------------------------------------------------------


def test_c09_storage_overhead_exact():
    with criterion(9, "fragment body bytes == padded payload + k * |pa| exactly"):
        rng = random.Random(9)
        combos = [
            (k, c, bs)
            for (k, c) in [(2, 2), (4, 2), (8, 2), (6, 3), (12, 3)]
            for bs in (16, 34, 128, 250)
        ]
        assert len(combos) == 20
        for k, c, bs in combos:
            params = CodecParams(k, c, bs)
            data = rng.randbytes(rng.randrange(1, 20_000))
            fragset = encode_data(data, params, rng)
            body = sum(
                len(wire.dump_fragment(f)) - wire.HEADER_SIZE - 4 for f in fragset
            )
            assert body == padded_length(len(data), params) + k * bs


# ---------------------------------------------------------------------------
# 10. scalability in k
# ---------------------------------------------------------------------------


def test_c10_scalability():
    """Times ``encode_data`` on whole in-memory payloads, through ``run_bench``;
    ``kfrag split`` of a file runs ``encode_chunks`` instead, a chunk at a time."""
    with criterion(10, "throughput flat in k for ours, degrading for secret sharing"):
        ours = run_bench(
            BenchConfig(
                schemes=[SchemeId.PROPOSED],
                payload_mb=64,
                repetitions=5,
                warmup=1,
                grid=[(4, 2, 250), (16, 2, 250)],
                measure_join=False,
                seed=11,
            )
        )
        k4 = next(r for r in ours if r.k == 4).mb_per_s_median
        k16 = next(r for r in ours if r.k == 16).mb_per_s_median
        assert abs(k16 / k4 - 1.0) <= 0.10, f"k=16 at {k16:.1f} vs k=4 at {k4:.1f} MB/s"

        sss = run_bench(
            BenchConfig(
                schemes=[SchemeId.SSS],
                payload_mb=64,
                repetitions=3,
                warmup=1,
                grid=[(2, 2, 250), (8, 2, 250)],
                measure_join=False,
                seed=11,
            )
        )
        s2 = next(r for r in sss if r.k == 2).mb_per_s_median
        s8 = next(r for r in sss if r.k == 8).mb_per_s_median
        assert s8 <= 0.60 * s2, f"k=8 at {s8:.1f} vs k=2 at {s2:.1f} MB/s"


# ---------------------------------------------------------------------------
# 11. block-size plateau
# ---------------------------------------------------------------------------


def test_c11_block_size_plateau():
    """Times ``encode_data`` on whole in-memory payloads, through ``run_bench``;
    ``kfrag split`` of a file runs ``encode_chunks`` instead, a chunk at a time."""
    with criterion(11, "throughput at |b|=250 >= |b|=16 for c in {2, 3}"):
        for grid in ([(4, 2, 16), (4, 2, 250)], [(6, 3, 16), (6, 3, 250)]):
            results = run_bench(
                BenchConfig(
                    schemes=[SchemeId.PROPOSED],
                    payload_mb=16,
                    repetitions=3,
                    warmup=1,
                    grid=grid,
                    measure_join=False,
                    seed=12,
                )
            )
            small = next(r for r in results if r.block_size == 16).mb_per_s_median
            large = next(r for r in results if r.block_size == 250).mb_per_s_median
            assert large >= small, f"grid {grid}: {large:.1f} < {small:.1f} MB/s"


# ---------------------------------------------------------------------------
# 12. erasure recovery
# ---------------------------------------------------------------------------


def test_c12_erasure_all_loss_patterns():
    with criterion(12, "every loss pattern recoverable for (2,3), (3,5), (4,6)"):
        rng = random.Random(12)
        for (k, n) in [(2, 3), (3, 5), (4, 6)]:
            params = ParityParams(k, n)
            primary = [rng.randbytes(1024) for _ in range(k)]
            parity = rs_encode(primary, params)
            rows = list(enumerate(primary)) + [
                (k + i, p) for i, p in enumerate(parity)
            ]
            for kept in itertools.combinations(rows, k):
                assert rs_decode(list(kept), params) == primary


# ---------------------------------------------------------------------------
# 13. baseline oracles
# ---------------------------------------------------------------------------


def test_c13_baseline_oracles():
    with criterion(13, "secret sharing and dispersal match independent oracles"):
        rng = random.Random(13)
        for secret in range(256):
            frags = sss_split(bytes([secret]), 2, 3, rng)
            for pair in itertools.combinations(frags, 2):
                points = [(f.x, f.data[0]) for f in pair]
                assert oracles.lagrange_at_zero(points) == secret

        for _ in range(10):
            data = rng.randbytes(90)
            frags = ida_split(data, 3, 5)
            chosen = rng.sample(frags, 3)
            inverse = oracles.invert_matrix([list(f.row) for f in chosen])
            out = bytearray()
            for g in range(len(chosen[0].data)):
                for s in range(3):
                    acc = 0
                    for t in range(3):
                        acc ^= oracles.gf_mul(inverse[s][t], chosen[t].data[g])
                    out.append(acc)
            assert bytes(out)[: len(data)] == data


# ---------------------------------------------------------------------------
# 14. dispersal rules
# ---------------------------------------------------------------------------


def test_c14_dispersal_rules():
    with criterion(14, "site rule clean for all k <= 64; corruption pinpointed"):
        for k in range(2, 65):
            for c in range(2, k + 1):
                if k % c == 0:
                    assert validate_assignment(assign_sites(k, c), k, c) == []
        bad = (0, 1, 1, 0)
        violations = validate_assignment(bad, 4, 2)
        assert set(violations) == {
            Violation(kind="neighbor", fragments=(1, 2), site=1),
            Violation(kind="neighbor", fragments=(0, 3), site=0),
        }


# ---------------------------------------------------------------------------
# 15. chi-squared calibration
# ---------------------------------------------------------------------------


def test_c15_chi_squared_calibration():
    with criterion(15, "pass rate 95% +/- 2% on 1000 uniform inputs"):
        gen = np.random.default_rng(2)
        passes = 0
        for _ in range(1000):
            arr = gen.integers(0, 256, 100_000, dtype=np.uint8)
            counts = np.bincount(arr, minlength=256)
            expected = arr.size / 256
            stat = float(((counts - expected) ** 2 / expected).sum())
            passes += 1 if stat <= CHI2_CRITICAL else 0
        rate = passes / 1000
        assert 0.93 <= rate <= 0.97, f"pass rate {rate:.3f}"
