"""Command-line interface.

Exit codes form the scripting contract: 0 success, 2 parameter errors,
3 I/O and backend errors and payloads that do not fit in memory, 4 threshold
(missing fragments), 5 integrity failures.  Data goes to stdout, diagnostics
to stderr.  Setting FRAG_RNG_SEED forces deterministic randomness
(golden-file tests only).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import sys
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path, PurePosixPath

import click

from . import analysis, baselines, dispersal, gf256, wire
from .baselines import SchemeId
from .codec import (
    CodecParams, Fragment, check_fragments, decode_data, decode_segments, encode_data,
)
# rs_decode is unused here, but perfbench/tracing.py wraps this name, so it stays importable
from .erasure import ParityParams, parity_fragments, rs_decode  # noqa: F401
from .errors import (
    FragmentationError, IntegrityError, ParameterError, StorageError, ThresholdError,
)
from .rng import rng_from_env

EXIT_PARAMETER = 2
EXIT_IO = 3
EXIT_THRESHOLD = 4
EXIT_INTEGRITY = 5


def _note(msg: str) -> None:
    click.echo(msg, err=True)


def _reported(recovered: dispersal.Recovered) -> dict:
    """The recovered bytes, after one stderr line per file set aside or rebuilt from parity."""
    for entry in sorted({*recovered.damaged, *recovered.rebuilt}, key=lambda e: e.index):
        fault = "digest mismatch" if entry in recovered.damaged else "missing"
        done = "rebuilt from parity" if entry in recovered.rebuilt else "set aside"
        _note(f"{entry.name}: {fault}, {done}")
    return recovered.blobs


def _payload_size(params: dict) -> str:
    """The size of the payload a command was given, for an out-of-memory message."""
    try:
        if params.get("in_path"):
            return f"{params['in_path'].stat().st_size} bytes"
        if params.get("manifest_path"):
            return f"{dispersal.Manifest.load(params['manifest_path']).payload_length} bytes"
    except (OSError, FragmentationError):
        pass
    return "unknown size"


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParameterError as exc:
            _note(f"error: {exc}")
            sys.exit(EXIT_PARAMETER)
        except ThresholdError as exc:
            _note(f"error: {exc}")
            sys.exit(EXIT_THRESHOLD)
        except IntegrityError as exc:
            _note(f"error: {exc}")
            sys.exit(EXIT_INTEGRITY)
        except (StorageError, OSError) as exc:
            _note(f"error: {exc}")
            sys.exit(EXIT_IO)
        except MemoryError:
            pass  # reported below, once the traceback has let go of the command's buffers
        command = click.get_current_context().info_name
        _note(f"error: out of memory in {command} on a payload of {_payload_size(kwargs)}")
        sys.exit(EXIT_IO)

    return wrapper


@click.group()
def main() -> None:
    """Fragment, disperse, analyze, and benchmark data protection schemes."""


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def _split_proposed(data: bytes, k: int, n: int, c: int, block_size: int, rng) -> list:
    return list(encode_data(data, CodecParams(k=k, c=c, block_size=block_size), rng))


@dataclass(frozen=True)
class Scheme:
    """How one scheme splits data and joins its fragments back.

    ``split(data, k, n, c, block_size, rng)`` returns the fragments without
    parity; ``join(fragments)`` takes fragments of type ``fragment`` and
    returns the data.  ``cipher`` and ``digest`` name the primitives the
    manifest records.
    """

    split: Callable
    join: Callable
    fragment: type
    cipher: str | None = None
    digest: str | None = None


# the baselines run with n fragments of which any k recover; c and the block
# size belong to the proposed scheme alone
SCHEMES: dict[SchemeId, Scheme] = {
    SchemeId.PROPOSED: Scheme(_split_proposed, decode_data, Fragment),
    SchemeId.SSS: Scheme(
        lambda data, k, n, c, block_size, rng: baselines.sss_split(data, k, n, rng),
        lambda frags: baselines.sss_reconstruct(frags, frags[0].k),
        baselines.SssFragment,
    ),
    SchemeId.IDA: Scheme(
        lambda data, k, n, c, block_size, rng: baselines.ida_split(data, k, n),
        baselines.ida_reconstruct,
        baselines.IdaFragment,
    ),
    SchemeId.SSMS: Scheme(
        lambda data, k, n, c, block_size, rng: baselines.ssms_split(data, k, n, rng),
        baselines.ssms_reconstruct,
        baselines.SsmsFragment,
        cipher="aes-128-ctr",
    ),
    SchemeId.AONT_RS: Scheme(
        lambda data, k, n, c, block_size, rng: baselines.aont_rs_split(data, k, n, rng),
        baselines.aont_rs_reconstruct,
        baselines.AontFragment,
        cipher="aes-128-ctr",
        digest="sha-256",
    ),
}


def split(scheme: SchemeId, data: bytes, k: int, n: int, c: int, block_size: int, rng) -> list:
    """Fragment data in memory with one scheme; returns its fragments, without parity."""
    if k < 1:
        raise ParameterError("--k must be positive")
    if n < k:
        raise ParameterError("--n must be at least --k")
    return SCHEMES[scheme].split(data, k, n, c, block_size, rng)


def join(loaded: list) -> bytes:
    """Reconstruct from deserialized fragments of any single scheme."""
    if not loaded:
        raise ThresholdError("k-of-k threshold not met: no fragments", missing=())
    kinds = {type(f) for f in loaded}
    if len(kinds) != 1:
        raise ParameterError("cannot mix schemes in one join")
    (kind,) = kinds
    for scheme in SCHEMES.values():
        if scheme.fragment is kind:
            return scheme.join(loaded)
    raise ParameterError(f"cannot join fragments of type {kind.__name__}")


def join_pieces(loaded: list) -> tuple[int, Iterable]:
    """The length of what ``loaded`` joins to, and its bytes as a series of buffers.

    The proposed scheme's come lazily, one ``decode_data`` call per range of
    ``decode_segments``, each decoded on every core; a baseline's joined bytes
    are one piece.  The fragment set is checked before any piece is decoded."""
    if not all(isinstance(f, Fragment) for f in loaded):
        data = join(loaded)
        return len(data), [data]
    check_fragments(loaded)
    segments = decode_segments(loaded[0].params, loaded[0].num_shares)
    # decode_data is looked up here at each call, where the traced benchmark wraps it
    return loaded[0].payload_length, (decode_data(loaded, rows) for rows in segments)


def load_files(blobs: list[bytes]) -> list:
    """The fragments in the raw files of one scheme, as ``kfrag join --frags`` loads
    them; parity files first rebuild the proposed scheme's lost fragment files."""
    parity = [blob for blob in blobs if blob[:4] == wire.MAGIC_PARITY]
    files = [blob for blob in blobs if blob[:4] != wire.MAGIC_PARITY]
    loaded = [wire.load_any(blob) for blob in files]
    if parity:
        if not all(isinstance(f, Fragment) for f in loaded):
            raise ParameterError("cannot mix schemes in one join")
        present = {f.index for f in loaded}
        rebuilt = dispersal.rebuild([(f.index, b) for f, b in zip(loaded, files)], parity)
        loaded += [wire.load_fragment(b) for i, b in enumerate(rebuilt) if i not in present]
    return loaded


def _write_split(out_dir: Path, manifest: dispersal.Manifest, blobs: list[bytes]) -> None:
    """Write the manifest's files, then the manifest, into ``out_dir``; refuses a
    directory holding fragment files the manifest does not list."""
    names = [entry.name for entry in manifest.fragments]
    stale = sorted(p.name for p in out_dir.glob("*")
                   if p.suffix in wire.EXTENSIONS.values() and p.name not in names)
    if stale:
        raise ParameterError(f"{out_dir} holds fragment files of another split: {', '.join(stale)}")
    files = {out_dir / name: blob for name, blob in zip(names, blobs)}
    dispersal.write_files({**files, out_dir / "manifest.json": manifest.to_json()})


@main.command("split")
@click.option("--in", "in_path", required=True, type=click.Path(path_type=Path))
@click.option("--k", default=4, show_default=True, help="Fragments needed for recovery.")
@click.option("--c", default=2, show_default=True, help="Independent storage sites.")
@click.option(
    "--block-size",
    default=250,
    show_default=True,
    help="Block size in bytes (proposed scheme only).",
)
@click.option(
    "--scheme", default="proposed", type=click.Choice([s.value for s in SchemeId]), show_default=True
)
@click.option("--n", default=None, type=int, help="Total fragments incl. redundancy.")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
@_guard
def cmd_split(in_path: Path, k: int, c: int, block_size: int, scheme: str, n: int | None, out_dir: Path):
    """Fragment a file into k (or n) fragment files plus a manifest."""
    n = k if n is None else n
    data = dispersal.read_file(in_path)
    chosen = SchemeId(scheme)
    frags = split(chosen, data, k, n, c, block_size, rng_from_env())
    # the fragments hold the payload now: free the input before the files are
    # dumped, and the fragments once they are
    payload_length = len(data)
    del data
    blobs = [wire.dump_any(f) for f in frags]
    del frags
    proposed = chosen is SchemeId.PROPOSED
    if proposed and n > k:
        parity = parity_fragments(blobs, ParityParams(k=k, n=n))
        blobs.extend(wire.dump_parity_fragment(pf) for pf in parity)
    manifest = dispersal.build_manifest(
        scheme,
        k=k,
        c=c if proposed else 0,
        block_size=block_size if proposed else 0,
        n=n,
        payload_length=payload_length,
        blobs=blobs,
        cipher=SCHEMES[chosen].cipher,
        digest=SCHEMES[chosen].digest,
    )
    _write_split(out_dir, manifest, blobs)
    _note(f"wrote {len(blobs)} fragment files to {out_dir}")
    click.echo(str(out_dir / "manifest.json"))


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------


@main.command("join")
@click.option("--manifest", "manifest_path", type=click.Path(path_type=Path))
@click.option("--frags", "first_frag", type=click.Path(path_type=Path))
@click.argument("more_frags", nargs=-1, type=click.Path(path_type=Path))
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
@_guard
def cmd_join(
    manifest_path: Path | None,
    first_frag: Path | None,
    more_frags: tuple[Path, ...],
    out_path: Path,
):
    """Reassemble the original file; prints its SHA-256 digest.

    Fragment files are given as ``--frags FILE [FILE ...]``.  The output is
    written in the pieces of ``join_pieces``: each is decoded, then hashed
    while it is written, then dropped, so the proposed scheme's join holds
    its fragment files and one decode segment of output.
    """
    frag_paths = ((first_frag,) if first_frag else ()) + tuple(more_frags)
    if manifest_path is None and not frag_paths:
        raise ParameterError("either --manifest or --frags is required")
    if manifest_path is not None and frag_paths:
        raise ParameterError("--manifest and --frags are mutually exclusive")

    if manifest_path is not None:
        manifest = dispersal.Manifest.load(manifest_path)
        blobs = _reported(dispersal.recover(manifest, dispersal.local_files(manifest_path.parent)))
        loaded = [wire.load_any(b) for e, b in blobs.items() if e.kind == "data"]
    else:
        loaded = load_files([dispersal.read_file(path) for path in frag_paths])
    length, pieces = join_pieces(loaded)
    sha = hashlib.sha256()
    # the digest runs beside the write whenever the output would take two parts
    beside = gf256._part_count(2, length // gf256._PART_MIN_BYTES) == 2
    with contextlib.closing(_hashed(pieces, sha, beside)) as hashed:  # joins its thread
        dispersal.write_files({out_path: hashed})
    _note(f"wrote {length} bytes to {out_path}")
    click.echo(sha.hexdigest())


def _hashed(pieces: Iterable, sha, beside: bool) -> Iterator:
    """Each piece, fed to ``sha`` while the caller writes it: on a second thread
    when ``beside``, else before it is handed on.  No piece is held past its write."""
    for piece in pieces:
        if beside:
            errors: list[BaseException] = []
            hashing = threading.Thread(target=_update, args=(sha, piece, errors))
            hashing.start()
            try:
                yield piece
            finally:
                hashing.join()
            if errors:
                raise errors[0]
        else:
            sha.update(piece)
            yield piece
        del piece  # before the next piece is decoded


def _update(sha, piece, errors: list[BaseException]) -> None:
    try:
        sha.update(piece)
    except BaseException as exc:  # re-raised on the writer's thread
        errors.append(exc)


# ---------------------------------------------------------------------------
# disperse / fetch
# ---------------------------------------------------------------------------


def _parse_sites(spec: str, manifest: dispersal.Manifest) -> list[dispersal.LocalDirectoryBackend]:
    """The directories ``--sites`` names, site i the i-th; as many as the manifest uses."""
    sites = [dispersal.LocalDirectoryBackend(Path(d)) for d in spec.split(",") if d]
    expected = dispersal.site_count(manifest)
    if len(sites) != expected:
        raise ParameterError(
            f"--sites must name {expected} directories"
            f" ({manifest.c} sites{' plus one parity site' if expected > manifest.c else ''}),"
            f" got {len(sites)}"
        )
    return sites


@main.command("disperse")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(path_type=Path))
@click.option("--sites", "sites_spec", required=True, help="Comma-separated site directories.")
@click.option(
    "--manifest-out",
    "manifest_out",
    default=None,
    type=click.Path(path_type=Path),
    help="Where to write the dispersal manifest [default: dispersal.json beside --manifest].",
)
@_guard
def cmd_disperse(manifest_path: Path, sites_spec: str, manifest_out: Path | None):
    """Store split fragments onto their sites; prints the assignment table."""
    manifest = dispersal.Manifest.load(manifest_path)
    if manifest.scheme != SchemeId.PROPOSED.value:
        raise ParameterError(
            f"disperse applies the neighbor-separation rules of the proposed scheme; "
            f"manifest is for {manifest.scheme!r}"
        )
    sites = _parse_sites(sites_spec, manifest)
    base = manifest_path.parent
    blobs, frags = {}, []
    read = dispersal.read(manifest, dispersal.local_files(base))
    for entry, blob in zip(manifest.fragments, read):
        if isinstance(blob, Exception):
            raise blob  # any lost, unreadable or damaged file
        if entry.kind == "data":
            frags.append(wire.load_fragment(blob))
        else:
            wire.load_parity_fragment(blob)  # parse check only
        blobs[entry] = blob
    check_fragments(frags)

    out_path = manifest_out or (base / "dispersal.json")
    stored = dispersal.store(
        manifest, blobs, sites, record=lambda m: dispersal.write_files({out_path: m.to_json()})
    )
    _note(f"dispersal manifest written to {out_path}")
    click.echo("fragment\tsite")
    for entry in stored.fragments:
        label = f"p{entry.index - stored.k}" if entry.kind == "parity" else f"f{entry.index}"
        click.echo(f"{label}\t{entry.site}")


@main.command("fetch")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(path_type=Path))
@click.option("--sites", "sites_spec", required=True, help="Comma-separated site directories.")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
@_guard
def cmd_fetch(manifest_path: Path, sites_spec: str, out_dir: Path):
    """Retrieve dispersed fragments back into a local directory."""
    manifest = dispersal.Manifest.load(manifest_path)
    blobs = _reported(dispersal.fetch(manifest, _parse_sites(sites_spec, manifest)))
    data = [entry for entry in blobs if entry.kind == "data"]
    entries = [replace(e, site=None, name=PurePosixPath(e.name).name) for e in data]
    local = replace(manifest, fragments=entries)
    _write_split(out_dir, local, [blobs[entry] for entry in data])
    _note(f"fetched {len(entries)} fragments into {out_dir}")
    click.echo(str(out_dir / "manifest.json"))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


@main.command("analyze")
@click.option("--in", "in_path", required=True, type=click.Path(path_type=Path))
@click.option(
    "--scheme", default="proposed", type=click.Choice([s.value for s in SchemeId]), show_default=True
)
@click.option("--k", default=4, show_default=True)
@click.option("--c", default=2, show_default=True)
@click.option("--block-size", default=250, show_default=True)
@click.option("--n", default=None, type=int)
@click.option("--report", "report_path", required=True, type=click.Path(path_type=Path))
@_guard
def cmd_analyze(in_path: Path, scheme: str, k: int, c: int, block_size: int, n: int | None, report_path: Path):
    """Fragment a file in memory and measure fragment statistics."""
    data = dispersal.read_file(in_path)
    n = k if n is None else n
    fragments = split(SchemeId(scheme), data, k, n, c, block_size, rng_from_env())
    reports = analysis.analyze_fragments(fragments, data, include_recurrence=False)
    params = {"k": k, "c": c, "block_size": block_size, "n": n}
    analysis.write_report_json(report_path, scheme, params, reports)
    _note(f"report written to {report_path}")
    failed = 0
    for r in reports:
        verdict = "pass" if r.chi2_pass else "FAIL"
        failed += 0 if r.chi2_pass else 1
        click.echo(
            f"fragment {r.fragment_index}: entropy={r.entropy:.4f} "
            f"chi2={r.chi2:.1f} bit_diff={r.bit_difference:.4f} {verdict}"
        )
    click.echo(
        f"summary: {len(reports) - failed}/{len(reports)} fragments pass chi-squared"
    )


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _parse_grid(spec: str) -> list[tuple[int, int, int]]:
    grid = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 3:
            raise ParameterError(f"malformed grid entry {part!r}; expected k,c,block_size")
        try:
            grid.append((int(pieces[0]), int(pieces[1]), int(pieces[2])))
        except ValueError:
            raise ParameterError(f"malformed grid entry {part!r}; expected integers") from None
    if not grid:
        raise ParameterError("empty --grid")
    return grid


@main.command("bench")
@click.option("--grid", "grid_spec", default=None, help='Semicolon list of "k,c,block_size".')
@click.option("--schemes", "schemes_spec", default="proposed", show_default=True)
@click.option("--payload-mb", default=100, show_default=True)
@click.option("--reps", default=3, show_default=True)
@click.option("--warmup", default=1, show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path(path_type=Path))
@_guard
def cmd_bench(grid_spec, schemes_spec, payload_mb, reps, warmup, out_path):
    """Measure fragmentation/defragmentation throughput on random payloads."""
    from . import bench  # bench reads the scheme table from this module

    try:
        schemes = [SchemeId(s.strip()) for s in schemes_spec.split(",") if s.strip()]
    except ValueError as exc:
        raise ParameterError(f"unknown scheme in --schemes: {exc}") from None
    cfg = bench.BenchConfig(
        schemes=schemes,
        payload_mb=payload_mb,
        repetitions=reps,
        warmup=warmup,
        grid=_parse_grid(grid_spec) if grid_spec else list(bench.DEFAULT_GRID),
    )
    results = bench.run_bench(cfg)
    csv_text = bench.emit_results(
        results,
        csv_path=out_path,
        json_path=out_path.with_suffix(".json") if out_path else None,
    )
    if out_path:
        _note(f"results written to {out_path}")
    click.echo(csv_text, nl=False)


if __name__ == "__main__":
    main()
