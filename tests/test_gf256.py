import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kfrag import erasure, gf256
from kfrag.errors import ParameterError

import oracles


def test_mul_examples():
    assert gf256.mul(0x00, 0xFF) == 0x00
    assert gf256.mul(0x01, 0xC2) == 0xC2
    assert gf256.mul(0x57, 0x13) == 0xFE


def test_mul_matches_peasant_oracle_exhaustive_row():
    # full sweep on a few rows, random pairs elsewhere
    for a in (0x01, 0x02, 0x53, 0xFF):
        for b in range(256):
            assert gf256.mul(a, b) == oracles.gf_mul(a, b)


@given(st.integers(0, 255), st.integers(0, 255))
def test_mul_matches_peasant_oracle(a, b):
    assert gf256.mul(a, b) == oracles.gf_mul(a, b)


def test_mul_commutative_full_sweep():
    assert np.array_equal(gf256.MUL_TABLE, gf256.MUL_TABLE.T)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_mul_distributes_over_add(a, b, c):
    assert gf256.mul(a, b ^ c) == gf256.mul(a, b) ^ gf256.mul(a, c)


def test_inv_examples():
    assert gf256.inv(0x01) == 0x01
    assert gf256.inv(0x02) == 0x8D
    with pytest.raises(ZeroDivisionError, match="no inverse of zero"):
        gf256.inv(0x00)


def test_inv_exhaustive():
    for a in range(1, 256):
        assert gf256.mul(a, gf256.inv(a)) == 0x01


def test_inv_of_two_by_exhaustive_search():
    assert next(b for b in range(256) if oracles.gf_mul(0x02, b) == 1) == 0x8D


@given(st.integers(0, 255), st.integers(0, 16))
def test_power_matches_repeated_mul(a, e):
    assert gf256.power(a, e) == oracles.gf_pow(a, e)


def test_invert_matrix_round_trip(rng):
    for n in (1, 2, 3, 5, 8):
        while True:
            m = np.array(
                [[rng.randrange(256) for _ in range(n)] for _ in range(n)],
                dtype=np.uint8,
            )
            try:
                inv = gf256.invert_matrix(m)
                break
            except ParameterError:
                continue  # singular draw, try again
        assert np.array_equal(gf256.matmul(m, inv), np.eye(n, dtype=np.uint8))


def test_invert_matrix_rejects_singular():
    m = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(ParameterError, match="singular"):
        gf256.invert_matrix(m)


def test_matmul_matches_oracle_for_arrays_and_row_lists(rng):
    a = np.array([[rng.randrange(256) for _ in range(4)] for _ in range(3)], dtype=np.uint8)
    a[0, 1], a[1, 2], a[2, 0] = 0, 1, 0  # zero and unit coefficients take shortcuts
    # the products by each coefficient, from the peasant oracle
    products = {c: np.array([oracles.gf_mul(c, b) for b in range(256)], dtype=np.uint8)
                for c in set(a.reshape(-1).tolist())}
    chunk = gf256._MATMUL_CHUNK
    for length in (37, 1, chunk - 1, chunk, chunk + 1):  # and the edges of the column chunk
        rows = np.array([list(rng.randbytes(length)) for _ in range(4)], dtype=np.uint8)
        expected = [
            (products[int(a[i, 0])][rows[0]] ^ products[int(a[i, 1])][rows[1]]
             ^ products[int(a[i, 2])][rows[2]] ^ products[int(a[i, 3])][rows[3]]).tolist()
            for i in range(3)
        ]
        assert gf256.matmul(a, rows).tolist() == expected
        assert gf256.matmul(a, list(rows)).tolist() == expected
        # strided rows (columns of a wider array) are read in place
        assert gf256.matmul(a, np.ascontiguousarray(rows.T).T).tolist() == expected


def test_matmul_rejects_mismatched_rows():
    a = np.ones((2, 3), dtype=np.uint8)
    with pytest.raises(ParameterError, match="shape"):
        gf256.matmul(a, np.zeros((2, 5), dtype=np.uint8))
    with pytest.raises(ParameterError, match="length"):
        gf256.matmul(a, [np.zeros(5, np.uint8), np.zeros(5, np.uint8), np.zeros(4, np.uint8)])


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad_part", [0, 2])  # the caller's part, a thread's part
def test_in_parts_covers_the_range_and_reraises_on_the_caller(bad_part, monkeypatch):
    monkeypatch.setattr(gf256, "_CORES", 3)
    before = threading.active_count()
    seen = []

    def fn(lo, hi):
        seen.append((lo, hi))
        if (lo, hi) == [(0, 3), (3, 6), (6, 10)][bad_part]:
            raise ValueError(f"part {lo}:{hi}")

    with pytest.raises(ValueError, match="part"):
        gf256._in_parts(10, 3 * gf256._PART_MIN_BYTES, fn)
    assert sorted(seen) == [(0, 3), (3, 6), (6, 10)]
    assert threading.active_count() == before

    # fewer parts when a part would fall below _PART_MIN_BYTES
    for nbytes, parts in [(3 * gf256._PART_MIN_BYTES - 1, [(0, 5), (5, 10)]),
                          (2 * gf256._PART_MIN_BYTES - 1, [(0, 10)])]:
        seen.clear()
        gf256._in_parts(10, nbytes, lambda lo, hi: seen.append((lo, hi)))
        assert sorted(seen) == parts


def test_a_loop_run_inside_a_part_runs_as_one_part_on_its_thread(monkeypatch):
    monkeypatch.setattr(gf256, "_CORES", 2)
    inner = []  # (outer part, inner lo, inner hi, thread)

    def part(lo, hi):
        gf256._in_parts(10, 4 * gf256._PART_MIN_BYTES,
                        lambda ilo, ihi: inner.append((lo, ilo, ihi, threading.current_thread())))

    gf256._in_parts(2, 2 * gf256._PART_MIN_BYTES, part)
    inner.sort(key=lambda call: call[0])
    assert [call[:3] for call in inner] == [(0, 0, 10), (1, 0, 10)]  # each whole, once
    assert inner[0][3] is threading.main_thread() is not inner[1][3]
    # a loop run after them is in parts again
    seen = []
    gf256._in_parts(10, 4 * gf256._PART_MIN_BYTES, lambda lo, hi: seen.append((lo, hi)))
    assert sorted(seen) == [(0, 5), (5, 10)]


def test_a_loop_run_inside_a_lone_part_runs_in_parts(monkeypatch):
    # as the decode of the one file write_files writes does: no other part's
    # thread is running, so the inner loop may use every core
    monkeypatch.setattr(gf256, "_CORES", 2)
    inner = []

    def part(lo, hi):
        gf256._in_parts(10, 4 * gf256._PART_MIN_BYTES,
                        lambda ilo, ihi: inner.append((ilo, ihi, threading.current_thread())))

    gf256._in_parts(1, 4 * gf256._PART_MIN_BYTES, part)
    inner.sort(key=lambda call: call[0])
    assert [call[:2] for call in inner] == [(0, 5), (5, 10)]
    assert inner[0][2] is threading.main_thread() is not inner[1][2]


def test_matmul_in_parts_gives_the_bytes_of_one_core(monkeypatch):
    gen = np.random.default_rng(7)
    k, n = 6, 3
    length = -(-3 * gf256._PART_MIN_BYTES // k) + 5  # three uneven parts on 3 cores
    assert k * length >= 3 * gf256._PART_MIN_BYTES
    a = gen.integers(0, 256, size=(n, k), dtype=np.uint8)
    a[0, 1], a[1, 2], a[2, 0], a[2, 3] = 0, 1, 0, 1  # zero and unit coefficients
    rows = gen.integers(0, 256, size=(k, length), dtype=np.uint8)
    # the transposed view IDA passes: row t is every k-th byte of the payload
    ida_rows = rows.reshape(length, k).T
    chunk = gf256._MATMUL_CHUNK
    # and rows ending at the edges of the column chunk, short enough for one part
    inputs = [rows, list(rows), ida_rows,
              *(rows[:, :edge] for edge in (1, chunk - 1, chunk, chunk + 1))]
    params = erasure.ParityParams(k=k, n=k + 2)
    primary = [row.tobytes() for row in rows]

    def run_all():
        parity = erasure.rs_encode(primary, params)
        lost = [(i, primary[i]) for i in range(2, k)] + list(enumerate(parity, start=k))
        return [gf256.matmul(a, x) for x in inputs], parity, erasure.rs_decode(lost, params)

    monkeypatch.setattr(gf256, "_CORES", 1)
    one_core = run_all()
    monkeypatch.setattr(gf256, "_CORES", 3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the parts as finely as possible
    try:
        in_parts = run_all()
    finally:
        sys.setswitchinterval(switch)
    for x, y in zip(one_core[0], in_parts[0]):
        assert np.array_equal(x, y)
    assert one_core[1] == in_parts[1]
    assert in_parts[2] == primary
