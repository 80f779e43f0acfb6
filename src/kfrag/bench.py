"""Throughput harness.

All schemes are measured the same way: a random payload held in memory is
fragmented (and defragmented) repeatedly, warm-up runs are discarded, and
the median MB/s over the remaining repetitions is reported.  Disk and
network never enter the timed region; this measures the codecs, not the
storage.  Absolute numbers are hardware-bound, so downstream checks should
compare medians relatively (scaling in k, block-size ordering) rather than
against fixed MB/s targets.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import SchemeId
from .cli import join, split
from .codec import CodecParams
from .errors import ParameterError

MB = 1 << 20

# the six standard grid points: two site counts, three block sizes
DEFAULT_GRID: list[tuple[int, int, int]] = [
    (4, 2, 16),
    (4, 2, 34),
    (4, 2, 250),
    (6, 3, 16),
    (6, 3, 34),
    (6, 3, 250),
]


@dataclass
class BenchConfig:
    schemes: list[SchemeId] = field(default_factory=lambda: [SchemeId.PROPOSED])
    payload_mb: int = 100
    repetitions: int = 3
    warmup: int = 1
    grid: list[tuple[int, int, int]] = field(default_factory=lambda: list(DEFAULT_GRID))
    seed: int = 0
    # off in the split-only acceptance gates: timing their joins too adds 10-13 s to the tests
    measure_join: bool = True

    def __post_init__(self) -> None:
        if self.repetitions < 3:
            raise ParameterError(f"repetitions must be at least 3, got {self.repetitions}")
        if self.payload_mb < 1:
            raise ParameterError(f"payload must be at least 1 MB, got {self.payload_mb}")
        if not self.grid:
            raise ParameterError("empty grid")
        if SchemeId.PROPOSED in self.schemes:
            for k, c, block_size in self.grid:
                CodecParams(k, c, block_size)  # rejects a bad point before the payload is built


@dataclass
class BenchResult:
    scheme: str
    k: int
    c: int
    block_size: int
    direction: str  # "split" or "join"
    mb_per_s_median: float
    mb_per_s_stddev: float
    repetitions: int


def _payload(cfg: BenchConfig) -> bytes:
    gen = np.random.default_rng(cfg.seed)
    return gen.integers(0, 256, size=cfg.payload_mb * MB, dtype=np.uint8).tobytes()


def run_bench(cfg: BenchConfig) -> list[BenchResult]:
    """Measure every (scheme, grid point); split and join timed separately.

    Repetitions are interleaved: each round times every point once, so a
    slow spell of the machine lands on all points alike instead of on one.
    Each join reassembles the fragments of the split timed just before it.
    """
    payload = _payload(cfg)
    size_mb = len(payload) / MB
    rng = random.Random(cfg.seed)
    points = [(scheme, *point) for scheme in cfg.schemes for point in cfg.grid]

    def once(scheme, k, c, block_size) -> tuple[float, float]:
        t0 = time.perf_counter()
        frags = split(scheme, payload, k, k, c, block_size, rng)  # baselines at n == k
        t1 = time.perf_counter()
        if cfg.measure_join:
            join(frags)
        return t1 - t0, time.perf_counter() - t1

    for _ in range(cfg.warmup):
        for point in points:
            once(*point)
    times = {point: [] for point in points}
    for _ in range(cfg.repetitions):
        for point in points:
            times[point].append(once(*point))

    results: list[BenchResult] = []
    for point in points:
        split_times, join_times = zip(*times[point])
        results.append(_result(*point, "split", size_mb, split_times, cfg))
        if cfg.measure_join:
            results.append(_result(*point, "join", size_mb, join_times, cfg))
    return results


def _result(scheme, k, c, block_size, direction, size_mb, times, cfg) -> BenchResult:
    rates = [size_mb / t for t in times]
    return BenchResult(
        scheme=scheme.value,
        k=k,
        c=c,
        block_size=block_size,
        direction=direction,
        mb_per_s_median=statistics.median(rates),
        mb_per_s_stddev=statistics.pstdev(rates) if len(rates) > 1 else 0.0,
        repetitions=cfg.repetitions,
    )


CSV_HEADER = "scheme,k,c,block_size,mb_per_s_median,mb_per_s_stddev,direction"


def emit_results(
    results: list[BenchResult],
    csv_path: str | Path | None = None,
    json_path: str | Path | None = None,
) -> str:
    """Render results as CSV (returned; optionally written) and JSON."""
    lines = [CSV_HEADER]
    for r in results:
        lines.append(
            f"{r.scheme},{r.k},{r.c},{r.block_size},"
            f"{r.mb_per_s_median:.3f},{r.mb_per_s_stddev:.3f},{r.direction}"
        )
    csv_text = "\n".join(lines) + "\n"
    if csv_path is not None:
        Path(csv_path).write_text(csv_text)
    if json_path is not None:
        doc = [r.__dict__ for r in results]
        Path(json_path).write_text(json.dumps(doc, indent=2))
    return csv_text
