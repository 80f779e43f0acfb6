"""Span recorder and layer wrappers for the traced benchmark run.

The wrappers are installed from outside the package, at the names the
callers look each function up under, and removed again afterwards:

- ``kfrag.cli`` imports ``encode_data``, ``decode_data``,
  ``parity_fragments`` and ``rs_decode`` by name, and ``kfrag.dispersal``
  imports ``rs_decode`` by name, so those module attributes are replaced;
- ``wire.dump_any``/``wire.load_any`` dispatch through ``wire._DUMPERS``
  and ``wire._LOADERS``, which hold their own references to the dumpers
  and loaders, so the table entries are replaced as well;
- ``codec.encode_data``/``decode_data`` look the permutation functions up in
  ``kfrag.codec``, and ``parity_fragments`` looks ``rs_encode`` up in
  ``kfrag.erasure``;
- SHA-256 is reached as ``hashlib.sha256`` from ``kfrag.cli`` and
  ``kfrag.dispersal``; their ``hashlib`` name is pointed at a proxy whose
  ``sha256`` is wrapped, so the benchmark's own digests stay untraced.

Each timed wrapper records one span (name, start, end, parent); spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Spans plus per-name call and byte counters, all in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter[str] = Counter()
        self.bytes: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name, fn, nbytes=None, timed=True):
        """``fn`` with a span named ``name`` and a byte count ``nbytes(args, result)``."""

        def wrapper(*args, **kwargs):
            if timed:
                with self.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            self.calls[name] += 1
            if nbytes is not None:
                self.bytes[name] += nbytes(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def inclusive_times(self) -> Counter[str]:
        out: Counter[str] = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> Counter[str]:
        """Span duration minus the time its child spans cover, summed per name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter[str] = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, then the counters, one per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")
            fh.write(json.dumps({"calls": self.calls, "bytes": self.bytes}))
            fh.write("\n")


class _HashlibProxy:
    """Stands in for the ``hashlib`` module with a traced ``sha256``."""

    def __init__(self, sha256) -> None:
        self.sha256 = sha256

    def __getattr__(self, name):
        return getattr(hashlib, name)


def _result_len(args, result) -> int:
    return len(result)


def _first_arg_len(args, result) -> int:
    return len(args[0]) if args else 0


def _rows_in(args, result) -> int:
    return sum(len(row) for row in args[0])


def _rows_out(args, result) -> int:
    return sum(len(row) for row in result)


def _put_len(args, result) -> int:
    return len(args[2])  # (backend, name, data)


@contextmanager
def installed(rec: Recorder):
    """Install every layer wrapper for the duration of the block."""
    from kfrag import cli, codec, dispersal, erasure, wire
    from kfrag.codec import Fragment
    from kfrag.erasure import ParityFragment

    def sites(name, fn, places, nbytes=None, timed=True):
        wrapped = rec.wrap(name, fn, nbytes, timed)
        return [(owner, key, wrapped) for owner, key in places]

    dump_fragment = wire.dump_fragment
    dump_parity = wire.dump_parity_fragment
    load_fragment = wire.load_fragment
    load_parity = wire.load_parity_fragment
    backend = dispersal.LocalDirectoryBackend
    proxy = _HashlibProxy(rec.wrap("digest.sha256", hashlib.sha256, _first_arg_len))

    patches = [
        *sites("codec.encode", cli.encode_data, [(cli, "encode_data")], _first_arg_len),
        *sites("codec.decode", cli.decode_data, [(cli, "decode_data")], _result_len),
        *sites("permutation.generate", codec.generate_permutations,
               [(codec, "generate_permutations")]),
        *sites("permutation.split", codec.split_permutation, [(codec, "split_permutation")]),
        *sites("permutation.reconstruct", codec.reconstruct_permutation,
               [(codec, "reconstruct_permutation")]),
        *sites("erasure.encode", erasure.rs_encode, [(erasure, "rs_encode")], _rows_in),
        *sites("erasure.decode", erasure.rs_decode,
               [(cli, "rs_decode"), (dispersal, "rs_decode")], _rows_out),
        *sites("wire.dump", dump_fragment,
               [(wire, "dump_fragment"), (wire._DUMPERS, Fragment)], _result_len),
        *sites("wire.dump", dump_parity,
               [(wire, "dump_parity_fragment"), (wire._DUMPERS, ParityFragment)], _result_len),
        *sites("wire.load", load_fragment,
               [(wire, "load_fragment"), (wire._LOADERS, wire.MAGIC_PROPOSED)], _first_arg_len),
        *sites("wire.load", load_parity,
               [(wire, "load_parity_fragment"), (wire._LOADERS, wire.MAGIC_PARITY)],
               _first_arg_len),
        *sites("dispersal.store", dispersal.store, [(dispersal, "store")]),
        *sites("dispersal.fetch", dispersal.fetch, [(dispersal, "fetch")]),
        # object I/O stays inside the store/fetch self time: counted, not timed
        *sites("dispersal.put", backend.put, [(backend, "put")], _put_len, timed=False),
        *sites("dispersal.get", backend.get, [(backend, "get")], _result_len, timed=False),
        (cli, "hashlib", proxy),
        (dispersal, "hashlib", proxy),
    ]
    saved = [(owner, key, _swap(owner, key, value)) for owner, key, value in patches]
    try:
        yield rec
    finally:
        for owner, key, value in reversed(saved):
            _swap(owner, key, value)


def _swap(owner, key, value):
    """Set ``owner.key`` (or ``owner[key]`` for a dict) and return the old value."""
    if isinstance(owner, dict):
        old, owner[key] = owner[key], value
    else:
        old = getattr(owner, key)
        setattr(owner, key, value)
    return old
