import math
import random

import numpy as np
import pytest

from kfrag import analysis
from kfrag.analysis import (
    CHI2_CRITICAL,
    analyze_fragments,
    bit_difference,
    chi_squared,
    correlation,
    entropy,
    measurable_bytes,
    pdf,
    recurrence,
)
from kfrag.baselines import ida_split
from kfrag.codec import CodecParams, encode_data
from kfrag.corpus import text_sample
from kfrag.errors import ParameterError

from oracles import periodic_sample


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_extremes():
    assert entropy(b"\x07" * 500) == 0.0
    assert entropy(bytes(range(256))) == 8.0
    assert entropy(bytes(range(256)) * 9) == 8.0


def test_entropy_two_symbols():
    assert entropy(b"\x00" * 100 + b"\xff" * 100) == pytest.approx(1.0)


def test_entropy_biased_two_symbols():
    # 1/4 vs 3/4 split: H = 2 - (3/4) log2 3
    data = b"\x00" * 25 + b"\xff" * 75
    expected = 2 - 0.75 * math.log2(3)
    assert entropy(data) == pytest.approx(expected)


def test_entropy_empty_rejected():
    with pytest.raises(ParameterError):
        entropy(b"")


# ---------------------------------------------------------------------------
# chi-squared
# ---------------------------------------------------------------------------


def test_chi_squared_uniform_counts_zero():
    stat, ok = chi_squared(bytes(range(256)) * 4)
    assert stat == 0.0
    assert ok


def test_chi_squared_constant_data_fails_hugely():
    n = 1000
    stat, ok = chi_squared(b"\x41" * n)
    expected = 255 * (n / 256) + (n - n / 256) ** 2 / (n / 256)
    assert stat == pytest.approx(expected)
    assert stat > CHI2_CRITICAL
    assert not ok


def test_chi_squared_minimum_length():
    with pytest.raises(ParameterError):
        chi_squared(b"\x00" * 999)


def test_chi_squared_passes_on_fragmented_text(rng):
    data = text_sample(100_000, seed=11)
    fragset = encode_data(data, CodecParams(2, 2, 34), rng)
    for frag in fragset:
        stat, ok = chi_squared(frag.shares.tobytes())
        assert ok, stat


# ---------------------------------------------------------------------------
# pdf
# ---------------------------------------------------------------------------


def test_pdf_uniform_and_spike():
    p = pdf(bytes(range(256)) * 3)
    assert np.allclose(p, 1 / 256)
    p = pdf(b"\x10" * 50)
    assert p[0x10] == 1.0
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_pdf_on_mixed_text_fragment_stays_near_uniform(rng):
    data = text_sample(120_000, seed=3)
    fragset = encode_data(data, CodecParams(2, 2, 34), rng)
    blob = measurable_bytes(list(fragset)[0])
    p = pdf(blob)
    # binomial bound: 5 sigma around 1/256
    sigma = math.sqrt((1 / 256) * (255 / 256) / len(blob))
    assert np.abs(p - 1 / 256).max() < 5 * sigma
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# bit difference
# ---------------------------------------------------------------------------


def test_bit_difference_extremes():
    x = bytes(range(64))
    assert bit_difference(x, x) == 0.0
    flipped = bytes(b ^ 0xFF for b in x)
    assert bit_difference(x, flipped) == 1.0


def test_bit_difference_half():
    assert bit_difference(b"\x0f" * 10, b"\x00" * 10) == pytest.approx(0.5)


def test_bit_difference_validation():
    with pytest.raises(ParameterError):
        bit_difference(b"ab", b"abc")
    with pytest.raises(ParameterError):
        bit_difference(b"", b"")


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------


def test_correlation_extremes():
    x = bytes(range(200))
    assert correlation(x, x) == pytest.approx(1.0)
    mirrored = bytes(255 - b for b in x)
    assert correlation(x, mirrored) == pytest.approx(-1.0)


def test_correlation_validation():
    with pytest.raises(ParameterError):
        correlation(b"\x05" * 10, bytes(range(10)))
    with pytest.raises(ParameterError):
        correlation(b"a", b"b")
    with pytest.raises(ParameterError):
        correlation(b"ab", b"abc")


def test_correlation_independent_random_near_zero():
    gen = np.random.default_rng(7)
    a = gen.integers(0, 256, 100_000, dtype=np.uint8).tobytes()
    b = gen.integers(0, 256, 100_000, dtype=np.uint8).tobytes()
    assert abs(correlation(a, b)) < 0.02


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------


def test_recurrence_examples():
    assert recurrence(bytes([1, 2, 3]), 1) == [(1, 2), (2, 3)]
    assert recurrence(bytes([9, 9, 9, 9]), 2) == [(9, 9), (9, 9)]
    pairs = recurrence(b"\x05" * 10, 1)
    assert all(x == y == 5 for x, y in pairs)


def test_recurrence_validation():
    with pytest.raises(ParameterError):
        recurrence(bytes([1, 2]), 0)
    with pytest.raises(ParameterError):
        recurrence(bytes([1, 2]), 2)


def test_recurrence_cell_occupancy_of_mixed_fragment(rng):
    data = text_sample(100_000, seed=21)
    fragset = encode_data(data, CodecParams(2, 2, 34), rng)
    pairs = recurrence(measurable_bytes(list(fragset)[0]), 1)
    cells = {(x // 16, y // 16) for x, y in pairs}
    assert len(cells) >= 0.90 * 256


def test_recurrence_of_text_is_banded(rng):
    # plain text occupies few coarse cells; the contrast the plot shows
    pairs = recurrence(text_sample(100_000, seed=21), 1)
    cells = {(x // 16, y // 16) for x, y in pairs}
    assert len(cells) < 0.20 * 256


# ---------------------------------------------------------------------------
# analyze_fragments
# ---------------------------------------------------------------------------


def test_analyze_fragments_excludes_headers_and_permutation_share(rng):
    data = text_sample(50_000, seed=9)
    fragset = encode_data(data, CodecParams(2, 2, 34), rng)
    reports = analyze_fragments(fragset, data)
    for frag, report in zip(fragset, reports):
        direct = frag.shares.tobytes()
        assert report.entropy == pytest.approx(entropy(direct))
        assert report.chi2 == pytest.approx(chi_squared(direct)[0])


def test_analyze_fragments_ida_fails_on_periodic_proposed_passes(rng):
    data = periodic_sample(60_000, period=32, seed=4)
    ida_reports = analyze_fragments(ida_split(data, 4, 4), data)
    assert all(not r.chi2_pass for r in ida_reports)
    proposed = encode_data(data, CodecParams(4, 2, 34), rng)
    prop_reports = analyze_fragments(proposed, data)
    assert all(r.chi2_pass for r in prop_reports)


def test_entropy_comparable_to_encrypted_dispersal(rng):
    # mixing keeps entropy in the same band as encrypt-then-disperse output
    from kfrag.baselines import ssms_split

    data = text_sample(100_000, seed=15)
    ours = analyze_fragments(encode_data(data, CodecParams(4, 2, 34), rng), data)
    theirs = analyze_fragments(ssms_split(data, 4, 4, rng), data)
    assert abs(min(r.entropy for r in ours) - min(r.entropy for r in theirs)) < 0.05


def test_analyze_fragments_uniform_random_everything_passes(rng):
    data = rng.randbytes(80_000)
    for frags in (
        encode_data(data, CodecParams(2, 2, 34), rng),
        ida_split(data, 2, 2),
    ):
        for r in analyze_fragments(frags, data):
            assert r.chi2_pass
            assert r.entropy > 7.9


def test_report_json_and_csv(tmp_path, rng):
    data = text_sample(30_000, seed=2)
    fragset = encode_data(data, CodecParams(2, 2, 16), rng)
    reports = analyze_fragments(fragset, data)
    out = tmp_path / "report.json"
    analysis.write_report_json(out, "proposed", {"k": 2, "c": 2, "block_size": 16}, reports)
    import json

    doc = json.loads(out.read_text())
    assert doc["scheme"] == "proposed"
    assert doc["params"]["k"] == 2
    assert len(doc["fragments"]) == 2
    for entry in doc["fragments"]:
        assert set(entry) == {
            "index", "entropy", "chi2", "chi2_pass", "bit_difference",
            "correlations", "pdf",
        }
        assert len(entry["pdf"]) == 256

    csv_path = tmp_path / "rec.csv"
    pairs = analysis.recurrence(analysis.measurable_bytes(fragset[0]))
    analysis.write_recurrence_csv(csv_path, pairs)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "value,delayed_value"
    assert len(lines) == 1 + len(pairs)
    assert lines[1] == "{},{}".format(*pairs[0])

    pdf_path = tmp_path / "pdf.csv"
    analysis.write_pdf_csv(pdf_path, reports[0])
    assert len(pdf_path.read_text().splitlines()) == 257


def test_correlation_matrix_shape_and_symmetry(rng):
    data = text_sample(40_000, seed=13)
    fragset = encode_data(data, CodecParams(4, 2, 34), rng)
    reports = analyze_fragments(fragset, data)
    matrix = np.array([r.correlations for r in reports])
    assert matrix.shape == (4, 4)
    assert np.allclose(matrix, matrix.T)
    assert np.allclose(np.diag(matrix), 1.0)
