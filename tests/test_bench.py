import json

import pytest

from kfrag.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchResult,
    DEFAULT_GRID,
    emit_results,
    run_bench,
)
from kfrag import cli
from kfrag.baselines import IdaFragment, SchemeId
from kfrag.codec import Fragment
from kfrag.errors import ParameterError


def _small_cfg(**kw):
    defaults = dict(
        schemes=[SchemeId.PROPOSED],
        payload_mb=1,
        repetitions=3,
        warmup=0,
        grid=[(4, 2, 250)],
        seed=1,
    )
    defaults.update(kw)
    return BenchConfig(**defaults)


def test_default_grid_is_the_six_standard_points():
    assert DEFAULT_GRID == [
        (4, 2, 16), (4, 2, 34), (4, 2, 250),
        (6, 3, 16), (6, 3, 34), (6, 3, 250),
    ]


def test_config_validation():
    with pytest.raises(ParameterError):
        _small_cfg(repetitions=2)
    with pytest.raises(ParameterError):
        _small_cfg(payload_mb=0)
    with pytest.raises(ParameterError):
        _small_cfg(grid=[])
    with pytest.raises(ParameterError):
        _small_cfg(schemes=[])
    with pytest.raises(ParameterError):
        _small_cfg(warmup=-1)


def test_run_bench_smoke_rows_and_positive_throughput():
    results = run_bench(_small_cfg())
    assert len(results) == 2  # split and join for one grid point
    directions = {r.direction for r in results}
    assert directions == {"split", "join"}
    for r in results:
        assert r.mb_per_s_median > 0
        assert r.scheme == "proposed"
        assert (r.k, r.c, r.block_size) == (4, 2, 250)


def test_run_bench_joins_through_the_join_of_kfrag_join(monkeypatch):
    # one join path for the command and the bench: each timed join is one call
    calls, join_pieces = [], cli.join_pieces

    def counted(loaded):
        calls.append(type(loaded[0]))
        return join_pieces(loaded)

    monkeypatch.setattr(cli, "join_pieces", counted)
    cfg = _small_cfg(schemes=[SchemeId.PROPOSED, SchemeId.IDA], warmup=1)
    run_bench(cfg)
    assert len(calls) == 2 * (cfg.warmup + cfg.repetitions)
    assert set(calls) == {Fragment, IdaFragment}


def test_run_bench_split_only_and_rows_scale_with_grid():
    cfg = _small_cfg(grid=[(4, 2, 250), (2, 2, 34)], measure_join=False)
    results = run_bench(cfg)
    assert len(results) == 2
    assert all(r.direction == "split" for r in results)


def test_run_bench_all_schemes_smoke():
    cfg = _small_cfg(
        schemes=[SchemeId.SSS, SchemeId.IDA, SchemeId.SSMS, SchemeId.AONT_RS],
        grid=[(2, 2, 250)],
    )
    results = run_bench(cfg)
    assert {r.scheme for r in results} == {"sss", "ida", "ssms", "aont-rs"}
    assert all(r.mb_per_s_median > 0 for r in results)


def test_secret_sharing_throughput_decreases_with_k():
    # per-byte work grows linearly with k for polynomial sharing
    cfg = _small_cfg(
        schemes=[SchemeId.SSS],
        payload_mb=4,
        grid=[(2, 2, 250), (4, 2, 250), (8, 2, 250)],
        measure_join=False,
    )
    by_k = {r.k: r.mb_per_s_median for r in run_bench(cfg)}
    assert by_k[2] > by_k[4] > by_k[8]


def test_two_sites_at_least_as_fast_as_three():
    """Times ``encode_data`` on whole in-memory payloads, through ``run_bench``;
    ``kfrag split`` of a file runs ``encode_chunks`` instead, a chunk at a time."""
    # fewer parent multiplications per byte: c=2 must not lose to c=3
    # one warm-up round, so the first timed split does not pay for cold caches and pages
    cfg = _small_cfg(payload_mb=4, grid=[(6, 2, 250), (6, 3, 250)], measure_join=False, warmup=1)
    results = run_bench(cfg)
    by_c = {r.c: r.mb_per_s_median for r in results}
    assert by_c[2] >= by_c[3]


def test_emit_results_empty_and_counts(tmp_path):
    assert emit_results([]) == CSV_HEADER + "\n"
    one = BenchResult(
        scheme="proposed", k=4, c=2, block_size=250, direction="split",
        mb_per_s_median=123.456, mb_per_s_stddev=1.5, repetitions=3,
    )
    text = emit_results([one])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "proposed,4,2,250,123.456,1.500,split"

    results = run_bench(_small_cfg(grid=[(4, 2, 250), (4, 2, 16)]))
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    text = emit_results(results, csv_path=csv_path, json_path=json_path)
    assert len(text.splitlines()) == 1 + len(results)  # grid points x directions
    assert csv_path.read_text() == text
    doc = json.loads(json_path.read_text())
    assert len(doc) == len(results)
    assert set(doc[0]) >= {"scheme", "k", "c", "block_size", "direction",
                           "mb_per_s_median", "mb_per_s_stddev"}
