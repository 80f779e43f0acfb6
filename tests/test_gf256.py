import numpy as np
import pytest
from hypothesis import given, strategies as st

from kfrag import gf256
from kfrag.errors import ParameterError

import oracles


def test_add_examples():
    assert gf256.add(0x00, 0x57) == 0x57
    assert gf256.add(0xA3, 0xA3) == 0x00
    assert gf256.add(0x57, 0x83) == 0xD4


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


def test_horner_examples():
    assert gf256.horner_eval([0x2A], 0x07) == 0x2A
    assert gf256.horner_eval([0x00, 0x01], 0x09) == 0x09
    expected = 0x11 ^ gf256.mul(0x57, 0x02) ^ gf256.mul(0x13, 0x04)
    assert gf256.horner_eval([0x11, 0x57, 0x13], 0x02) == expected


def test_horner_empty_rejected():
    with pytest.raises(ParameterError):
        gf256.horner_eval([], 0x02)


@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=17),
    st.integers(0, 255),
)
def test_horner_matches_power_sum_oracle(coeffs, x):
    assert gf256.horner_eval(coeffs, x) == oracles.poly_eval(coeffs, x)


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
    rows = np.array([list(rng.randbytes(37)) for _ in range(4)], dtype=np.uint8)
    expected = [
        [
            oracles.gf_mul(int(a[i, 0]), int(rows[0, v]))
            ^ oracles.gf_mul(int(a[i, 1]), int(rows[1, v]))
            ^ oracles.gf_mul(int(a[i, 2]), int(rows[2, v]))
            ^ oracles.gf_mul(int(a[i, 3]), int(rows[3, v]))
            for v in range(37)
        ]
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
