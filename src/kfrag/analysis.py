"""Statistical test bench for fragment content.

Measures how close fragment bytes are to uniform and independent: byte
value distribution, Shannon entropy, a chi-squared uniformity test at the
0.05 level, bit difference against the original and between fragments,
pairwise Pearson correlation, and delayed-pair data for recurrence plots.
Measurements run over the data-share bytes only; permutation shares and
headers are excluded so random filler cannot flatter a scheme.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import Fragment
from .dispersal import write_files
from .errors import ParameterError

# chi-squared critical value at 255 degrees of freedom, alpha = 0.05;
# hard-coded to avoid a numerical dependency
CHI2_CRITICAL = 293.2478

CHI2_MIN_SAMPLES = 1000

_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def _as_array(data) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return data.reshape(-1).astype(np.uint8, copy=False)
    return np.frombuffer(bytes(data), dtype=np.uint8)


def entropy(data) -> float:
    """Shannon entropy of the byte distribution, in bits per byte (0..8)."""
    arr = _as_array(data)
    if arr.size == 0:
        raise ParameterError("entropy of empty data is undefined")
    counts = np.bincount(arr, minlength=256)
    p = counts[counts > 0] / arr.size
    return float(-(p * np.log2(p)).sum())


def chi_squared(data) -> tuple[float, bool]:
    """Chi-squared statistic over 256 byte bins and the alpha=0.05 verdict."""
    arr = _as_array(data)
    if arr.size < CHI2_MIN_SAMPLES:
        raise ParameterError(
            f"chi-squared needs at least {CHI2_MIN_SAMPLES} bytes, got {arr.size}"
        )
    expected = arr.size / 256.0
    counts = np.bincount(arr, minlength=256)
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, stat <= CHI2_CRITICAL


def pdf(data) -> np.ndarray:
    """Occurrence probability of each of the 256 byte values."""
    arr = _as_array(data)
    if arr.size == 0:
        raise ParameterError("pdf of empty data is undefined")
    return np.bincount(arr, minlength=256) / arr.size


def bit_difference(a, b) -> float:
    """Fraction of differing bits between two equal-length sequences."""
    xa, xb = _as_array(a), _as_array(b)
    if xa.size != xb.size:
        raise ParameterError(f"length mismatch: {xa.size} vs {xb.size}")
    if xa.size == 0:
        raise ParameterError("bit difference of empty data is undefined")
    return float(_POPCOUNT[xa ^ xb].sum()) / (8.0 * xa.size)


def correlation(a, b) -> float:
    """Pearson correlation coefficient between two byte sequences."""
    xa, xb = _as_array(a).astype(np.float64), _as_array(b).astype(np.float64)
    if xa.size != xb.size:
        raise ParameterError(f"length mismatch: {xa.size} vs {xb.size}")
    if xa.size < 2:
        raise ParameterError("correlation needs at least two samples")
    sa, sb = xa.std(), xb.std()
    if sa == 0.0 or sb == 0.0:
        raise ParameterError("correlation undefined for zero-variance input")
    return float(((xa - xa.mean()) * (xb - xb.mean())).mean() / (sa * sb))


def recurrence(data, t: int = 1) -> list[tuple[int, int]]:
    """All (x_i, x_{i+t}) pairs for a recurrence plot with delay t >= 1."""
    if t < 1:
        raise ParameterError(f"delay must be at least 1, got {t}")
    arr = _as_array(data)
    if arr.size <= t:
        raise ParameterError(f"need more than {t} samples, got {arr.size}")
    pairs = np.stack([arr[:-t], arr[t:]], axis=1)
    return [(int(x), int(y)) for x, y in pairs]


@dataclass
class SchemeReport:
    """Per-fragment measurements plus this fragment's correlation row."""

    fragment_index: int
    entropy: float
    chi2: float
    chi2_pass: bool
    pdf: np.ndarray
    bit_difference: float
    correlations: list[float]

    def to_dict(self) -> dict:
        return {
            "index": self.fragment_index,
            "entropy": self.entropy,
            "chi2": self.chi2,
            "chi2_pass": self.chi2_pass,
            "bit_difference": self.bit_difference,
            "correlations": self.correlations,
            "pdf": [float(p) for p in self.pdf],
        }


def measurable_bytes(fragment) -> bytes:
    """The bytes a curious provider would study: data shares, no headers."""
    if isinstance(fragment, Fragment):
        return fragment.shares.tobytes()
    data = getattr(fragment, "data", None)
    if data is None:
        raise ParameterError(f"cannot extract bytes from {type(fragment).__name__}")
    return bytes(data)


def analyze_fragments(fragments, original: bytes) -> list[SchemeReport]:
    """Run every measurement on each fragment's data bytes.

    Bit difference against the original compares over the common prefix, as
    fragments are shorter than the payload they came from.
    """
    frags = list(fragments)
    if not frags:
        raise ParameterError("no fragments to analyze")
    blobs = [measurable_bytes(f) for f in frags]
    corr = [[1.0] * len(blobs) for _ in blobs]
    for i, j in itertools.combinations(range(len(blobs)), 2):  # Pearson is symmetric
        cut = min(len(blobs[i]), len(blobs[j]))
        corr[i][j] = corr[j][i] = correlation(blobs[i][:cut], blobs[j][:cut])
    reports = []
    for i, (frag, blob) in enumerate(zip(frags, blobs)):
        stat, ok = chi_squared(blob)
        cut = min(len(blob), len(original))
        reports.append(
            SchemeReport(
                fragment_index=getattr(frag, "index", i),
                entropy=entropy(blob),
                chi2=stat,
                chi2_pass=ok,
                pdf=pdf(blob),
                bit_difference=bit_difference(blob[:cut], original[:cut]),
                correlations=corr[i],
            )
        )
    return reports


def write_report_json(path: str | Path, scheme: str, params: dict, reports: list[SchemeReport]) -> None:
    """A JSON document: scheme id, parameters, per-fragment metrics."""
    doc = {"scheme": scheme, "params": params, "fragments": [r.to_dict() for r in reports]}
    write_files({Path(path): json.dumps(doc, indent=2).encode()})


def write_recurrence_csv(path: str | Path, pairs: list[tuple[int, int]]) -> None:
    """The pairs of ``recurrence``, one per line."""
    lines = ["value,delayed_value"]
    lines += [f"{x},{y}" for x, y in pairs]
    write_files({Path(path): ("\n".join(lines) + "\n").encode()})


def write_pdf_csv(path: str | Path, report: SchemeReport) -> None:
    lines = ["byte,probability"]
    lines += [f"{i},{p:.10g}" for i, p in enumerate(report.pdf)]
    write_files({Path(path): ("\n".join(lines) + "\n").encode()})
