"""The benchmark's tracing wrappers still find every name they patch.

``perfbench/tracing.py`` replaces module attributes of ``kfrag`` by name; a
renamed or removed attribute would only show up as a crash of the traced
benchmark run.  Installing and removing the wrappers here catches it early.
"""

import importlib.util
from pathlib import Path

from kfrag import cli, dispersal, wire
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
