"""The benchmark's tracing wrappers still find every name they patch.

``perfbench/tracing.py`` replaces module attributes of ``kfrag`` by name; a
renamed or removed attribute would only show up as a crash of the traced
benchmark run.  Installing and removing the wrappers here catches it early.
"""

import importlib.util
import os
from pathlib import Path

from click.testing import CliRunner

from kfrag import cli, codec, dispersal, gf256, wire
from kfrag.codec import CodecParams

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_hooks_install_count_and_restore(rng):
    tracing = _tracing()
    before = (cli.encode_data, cli.hashlib, dispersal.store, dict(wire._DUMPERS))
    rec = tracing.Recorder()
    with tracing.installed(rec):
        fragset = cli.encode_data(rng.randbytes(1000), CodecParams(2, 2, 16), rng)
        blobs = [wire.dump_any(f) for f in fragset]
        dispersal.build_manifest("proposed", 2, 2, 16, 2, 1000, blobs)
    assert rec.calls["codec.encode"] == 1
    assert rec.calls["wire.dump"] == 2
    assert rec.calls["digest.sha256"] == 2
    assert rec.bytes["wire.dump"] == sum(len(b) for b in blobs)
    assert (cli.encode_data, cli.hashlib, dispersal.store, dict(wire._DUMPERS)) == before


def test_split_and_parity_join_run_through_the_traced_names(tmp_path):
    # the benchmark times the codec and RS layers at these names only, so a
    # command that reached them another way would go unmeasured
    tracing = _tracing()
    src = tmp_path / "in.bin"
    src.write_bytes(os.urandom(20_000))
    out = tmp_path / "frags"
    runner = CliRunner()

    def kfrag(*args):
        result = runner.invoke(cli.main, list(args), catch_exceptions=False)
        assert result.exit_code == 0, result.output

    rec = tracing.Recorder()
    with tracing.installed(rec):
        kfrag("split", "--in", str(src), "--out", str(out), "--n", "6")
        # four fragments through dump_any, two parity files by name
        assert rec.calls["wire.dump"] == 6, rec.calls
        (out / "f1.kfrg").unlink()
        kfrag("join", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "back"))
    assert (tmp_path / "back").read_bytes() == src.read_bytes()
    # join rebuilds f1 from the bytes of the 3 fragment files and the 2 parity
    # files it loads, then loads the 4 fragments: no fragment is dumped again
    assert (rec.calls["wire.dump"], rec.calls["wire.load"]) == (6, 6), rec.calls
    for name in ("codec.encode", "codec.decode", "erasure.encode", "erasure.decode"):
        assert rec.calls[name] == 1, (name, rec.calls)


def test_join_traces_one_decode_per_segment(tmp_path, monkeypatch):
    # the traced codec.decode spans and bytes of a join add up over its segments
    tracing = _tracing()
    monkeypatch.setattr(gf256, "_CORES", 1)
    size = 10 << 20
    params = CodecParams(4, 2, 250)
    segments = codec.decode_segments(params, codec.padded_length(size, params) // 1000)
    assert len(segments) >= 3
    src = tmp_path / "in.bin"
    src.write_bytes(os.urandom(size))
    out = tmp_path / "frags"
    runner = CliRunner()

    def kfrag(*args):
        result = runner.invoke(cli.main, list(args), catch_exceptions=False)
        assert result.exit_code == 0, result.output

    kfrag("split", "--in", str(src), "--out", str(out))
    rec = tracing.Recorder()
    with tracing.installed(rec):
        kfrag("join", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "back"))
    assert (tmp_path / "back").read_bytes() == src.read_bytes()
    spans = [span for span in rec.spans if span[0] == "codec.decode"]
    assert len(spans) == rec.calls["codec.decode"] == len(segments)
    assert rec.bytes["codec.decode"] == size
    # one after another, on the join's thread
    assert all(a[2] <= b[1] for a, b in zip(spans, spans[1:]))
