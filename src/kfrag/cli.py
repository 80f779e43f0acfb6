"""Command-line interface.

Exit codes form the scripting contract: 0 success, 2 parameter errors,
3 I/O and backend errors and payloads that do not fit in memory, 4 threshold
(missing fragments), 5 integrity failures.  Data goes to stdout, diagnostics
to stderr.  Every split draws its permutations from the operating system's
CSPRNG (``random.SystemRandom``); nothing in the environment can seed it.

No command holds a large payload or set at once.  ``split`` reads and
encodes the proposed scheme's input a chunk of share rows at a time
(``codec.encode_chunks``), writing and hashing each file's piece of a
chunk, and its parity's, before the next, or, at c >= 3, while a second
thread encodes the next.  ``disperse`` puts each file as it reads it, a
piece at a time.  ``fetch`` writes each object a piece at a time, and
``join`` reads each file a decode segment at a time, so it holds one
segment of input and one of output; both rebuild lost data files from
parity as they go (``dispersal.read_set``).  Only a pipe, whose pages go
back as the command goes past them, a baseline's input and a baseline's set
are read whole.  An error of ``split``, ``disperse`` or ``join --frags`` is
reported as it is met, with nothing written or stored; ``fetch`` and ``join
--manifest`` set damaged files aside and run again.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import random
import sys
from collections.abc import Callable, Iterable
from dataclasses import replace
from pathlib import Path, PurePosixPath

import click

from . import dispersal, gf256, wire
from .baselines import SchemeId
from .codec import (
    CodecParams, Fragment, check_fragments, decode_data, decode_segments, encode_chunks,
    encode_data, rebuild_permutations,
)
# rs_decode is unused here, but perfbench/tracing.py wraps the name cli.rs_decode
from .erasure import ParityParams, parity_fragments, rs_decode
from .errors import (
    FragmentationError, IntegrityError, ParameterError, StorageError, ThresholdError,
)

EXIT_PARAMETER = 2
EXIT_IO = 3
EXIT_THRESHOLD = 4
EXIT_INTEGRITY = 5


def _note(msg: str) -> None:
    click.echo(msg, err=True)


def _report(recovered: dispersal.Recovered) -> None:
    """Write one stderr line per file set aside or rebuilt from parity."""
    for entry in sorted({*recovered.damaged, *recovered.rebuilt}, key=lambda e: e.index):
        fault = "digest mismatch" if entry in recovered.damaged else "missing"
        done = "rebuilt from parity" if entry in recovered.rebuilt else "set aside"
        _note(f"{entry.name}: {fault}, {done}")


def _payload_size(params: dict) -> str:
    """The size of the payload a command was given, for an out-of-memory message;
    unknown for an input that is not a regular file, such as a pipe."""
    try:
        if params.get("in_path") and params["in_path"].is_file():
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


def _check_counts(k: int, n: int) -> None:
    if k < 1:
        raise ParameterError("--k must be positive")
    if n < k:
        raise ParameterError("--n must be at least --k")


def split(scheme: SchemeId, data: bytes, k: int, n: int, c: int, block_size: int, rng) -> list:
    """Fragment data in memory with one scheme; returns its fragments, without parity."""
    _check_counts(k, n)
    return wire.SCHEMES[scheme].split(data, k, n, c, block_size, rng)


def join_pieces(loaded: list) -> tuple[int, Iterable]:
    """The length of what ``loaded``, fragments of one scheme, join to, and its bytes
    as a series of buffers.

    The proposed scheme's come lazily, one ``decode_data`` call per range of
    ``decode_segments``, each decoded on every core; a baseline's are one
    piece, joined by its row of the scheme table.  The fragment set is
    checked, and its permutations rebuilt, once, before any piece is decoded."""
    kinds = {type(f) for f in loaded} or {Fragment}  # no fragments: check_fragments says so
    if len(kinds) > 1:
        raise ParameterError("cannot mix schemes in one join")
    (kind,) = kinds
    row = wire.FORMAT_OF.get(kind)
    if row is None or row.scheme is None:
        raise ParameterError(f"cannot join fragments of type {kind.__name__}")
    if row.join:
        data = row.join(loaded)
        return len(data), [data]
    check_fragments(loaded)
    permutations = rebuild_permutations(loaded)
    segments = decode_segments(loaded[0].params, loaded[0].num_shares)
    # decode_data is looked up here at each call, where the traced benchmark wraps it
    return loaded[0].payload_length, (decode_data(loaded, rows, permutations)
                                      for rows in segments)


def _write_split(out_dir: Path, names: list[str], blobs: list, manifest,
                 fill: Callable | None = None) -> None:
    """Write the files ``names``, then the manifest, into ``out_dir``; refuses a
    directory holding fragment files not among ``names``.  Each content, bytes
    or None, the manifest's too, and ``fill`` are as for ``write_files``."""
    stale = sorted(p.name for p in out_dir.glob("*")
                   if p.suffix in wire.EXTENSIONS.values() and p.name not in names)
    if stale:
        raise ParameterError(f"{out_dir} holds fragment files of another split: {', '.join(stale)}")
    files = {out_dir / name: blob for name, blob in zip(names, blobs)}
    dispersal.write_files({**files, out_dir / "manifest.json": manifest}, (), fill)


def _split_streamed(in_path: Path, k: int, n: int, c: int, block_size: int,
                    out_dir: Path) -> None:
    """Split the file at ``in_path`` with the proposed scheme a chunk of share rows at
    a time, and write its files; on an error, nothing is written.  The input is
    opened first (``read_file``, which reads a pipe to its end here), then checked
    as ``split`` checks an input read whole, in the same order.

    For each chunk of ``encode_chunks``, the input is read on, encoded through
    ``encode_data`` (which continues the chunk before it) and released; then
    each data file's piece of the chunk is dumped, its parity's RS-encoded
    from those pieces, and each piece written and hashed, in parts, and
    dropped.  Each step writes one chunk and then encodes the next, as the
    two parts of one ``gf256._run_parts`` loop.  At c = 2, whose scan runs on
    every core, the loop is one part, so the steps run one after another, in
    chunks of 8.6 to 17 MB of input at 2 cores, and the split holds about two
    chunks.  At c >= 3, whose sweep runs on one thread, chunks are of about
    1 MiB and the loop is two parts: this thread writes chunk i while a
    second thread encodes chunk i + 1, every loop inside either part runs
    as one part, and the split holds about three chunks.  Either way the
    bytes written are the same, whatever the payload.  All of it is the fill
    of ``write_files``, the manifest its last file, appended last.  An error
    of either part stops the split, that of the write when both fail.
    """
    with contextlib.closing(dispersal.read_file(in_path, sparse=True, hashed=False)) as src:
        _check_counts(k, n)
        params = CodecParams(k=k, c=c, block_size=block_size)
        size, m = len(src.buf), params.group_size
        chunks = encode_chunks(params, size)
        parity = ParityParams(k=k, n=n) if n > k else None
        magics = [wire.MAGIC_PROPOSED] * k + [wire.MAGIC_PARITY] * (n - k)
        names = [dispersal.file_name(i, k, magic) for i, magic in enumerate(magics)]
        shas = [hashlib.sha256() for _ in names]

        def fill(appends: list[Callable]) -> None:
            rng = random.SystemRandom()
            after, offset, length = (), 0, None

            def encode(rows: range) -> list[Fragment]:
                """Read the chunk of share rows ``rows`` on and encode it."""
                nonlocal after
                end = min(rows.stop * m, size)
                src.fill(end)
                frags = encode_data(src.buf[rows.start * m : end], params, rng, after, size)
                src.release(end)
                # the next chunk reads the permutation shares and the last row alone
                after = [replace(f, shares=f.shares[-1:].copy(), first_row=rows.stop - 1)
                         for f in frags]
                return list(frags)

            def write(rows: range, frags: list[Fragment]) -> None:
                """Dump, RS-encode, append and hash the chunk ``rows``, emptying ``frags``."""
                nonlocal offset, length
                # the data files' pieces, in a buffer whose pages go back once written
                dumped = dispersal.mapped(k * (wire.HEAD + len(rows) * block_size)).reshape(k, -1)
                pieces = [wire.dump_fragment(f, dumped[j]) for j, f in enumerate(frags)]
                frags.clear()
                if parity:
                    # the length of a data file, for the head of its parity file
                    length = length or len(pieces[0]) + (chunks[-1].stop - rows.stop) * block_size
                    pieces += [wire.dump_parity_fragment(pf) for pf in
                               parity_fragments(pieces, parity, offset, length)]
                    offset += len(pieces[0])

                def append(j: int) -> None:
                    appends[j](pieces[j])
                    shas[j].update(pieces[j])

                gf256._map_in_parts(append, list(range(n)), sum(map(len, pieces)))

            # each step writes one chunk, then encodes the next; at c >= 3, whose
            # sweep runs on one thread, a second thread encodes it meanwhile
            frags = encode(chunks[0])
            for done, rows in zip(chunks, chunks[1:]):
                ahead: list[Fragment] = []
                jobs = (lambda: write(done, frags), lambda: ahead.extend(encode(rows)))
                gf256._run_parts(2, 2 if c > 2 else 1, lambda lo, hi: [job() for job in jobs[lo:hi]])
                frags = ahead
            write(chunks[-1], frags)
            appends[n](dispersal.build_manifest(
                SchemeId.PROPOSED.value, k=k, c=c, block_size=block_size, n=n,
                payload_length=size, blobs=magics, sha256=[s.hexdigest() for s in shas],
            ).to_json())

        _write_split(out_dir, names, [None] * n, None, fill)


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
    chosen = SchemeId(scheme)
    if chosen is SchemeId.PROPOSED:
        _split_streamed(in_path, k, n, c, block_size, out_dir)
    else:
        _split_whole(in_path, chosen, k, n, c, block_size, out_dir)
    _note(f"wrote {n} fragment files to {out_dir}")
    click.echo(str(out_dir / "manifest.json"))


def _split_whole(in_path: Path, chosen: SchemeId, k: int, n: int, c: int, block_size: int,
                 out_dir: Path) -> None:
    """Split the input read whole with a baseline scheme and write its n files."""
    row = wire.SCHEMES[chosen]
    data = dispersal.read_file(in_path)
    frags = split(chosen, data, k, n, c, block_size, random.SystemRandom())
    # the fragments hold the payload now: free the input before the files are
    # dumped, and the fragments once they are
    payload_length = len(data)
    del data
    blobs = [wire.dump_any(f) for f in frags]
    del frags
    manifest = dispersal.build_manifest(
        chosen.value,
        k=k,
        c=0,  # c and the block size: only the keyless codec's files carry them
        block_size=0,
        n=n,
        payload_length=payload_length,
        blobs=blobs,
        cipher=row.cipher,
        digest=row.digest,
    )
    _write_split(out_dir, [entry.name for entry in manifest.fragments], blobs, manifest.to_json())


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------


def _write_join(out_path: Path, files: list[dispersal.SparseFile],
                check: Callable[[], None] = lambda: None) -> tuple[int, str]:
    """Write what the SparseFiles ``files`` join to at ``out_path``; returns its length
    and SHA-256 digest.  The output is committed only if ``check`` returns.

    Their heads are read first.  The proposed scheme's ``files``, data, parity
    and rebuilt, are read as they are decoded: the output, the one file of a
    fill of ``write_files``, is appended in the pieces of ``join_pieces``, each
    decoded, then appended on this thread and hashed, as the two parts of one
    ``gf256._map_in_parts`` (the hash runs on a second thread from 8 MiB of
    output), then dropped.  Each part then also releases its half of the files
    read up to the row before the next segment and reads them on to its end,
    the first segment in a parallel step of its own, and the rebuilt ones are
    made after each step.  So a join holds one segment of input and one of
    output, as many parallel steps per segment as a join of files read whole.
    A baseline's files are read whole and checked first, then joined as one
    piece.
    """
    for f in files:
        f.fill(min(len(f), wire.HEAD))  # a rebuilt file's first piece is made here
    data = [f for f in files if bytes(f.buf[:4]) != wire.MAGIC_PARITY]
    if all(bytes(f.buf[:4]) == wire.MAGIC_PROPOSED for f in data):
        loaded = [wire.load_fragment(f.buf) for f in data]
    else:
        for f in files:
            f.fill(len(f))
        check()
        loaded = [wire.load_any(f.buf) for f in data]
        if len(data) < len(files):  # a baseline's files have no parity
            raise ParameterError("cannot mix schemes in one join")
        files = []
    length, pieces = join_pieces(loaded)
    sha = hashlib.sha256()
    # the files read, in two halves, then the rebuilt ones
    read = [f for f in files if not isinstance(f, dispersal.Rebuilt)]
    groups = [read[: len(read) // 2], read[len(read) // 2 :], [f for f in files if f not in read]]
    # the share rows of each piece; a file ends with its share rows
    rows = decode_segments(loaded[0].params, loaded[0].num_shares) if files else []

    def start(f: dispersal.SparseFile, row: int) -> int:
        return len(f.buf) - (loaded[0].num_shares - row) * loaded[0].params.block_size

    def ahead(i: int, group: int) -> None:
        """Release the group's files up to the row before segment i and read them to its end."""
        for f in groups[group]:
            if i > 0:
                f.release(start(f, rows[i - 1].stop - 1))
            if i < len(rows):
                f.fill(start(f, rows[i].stop))

    def write(appends: list[Callable]) -> None:
        if files:
            gf256._map_in_parts(lambda part: ahead(0, part), [0, 1], length)
            ahead(0, 2)
        i = 0  # the segment read next; not enumerate, which would hold each piece too
        for piece in pieces:
            i += 1

            def job(part: int) -> None:
                (appends[0], sha.update)[part](piece)
                ahead(i, part)

            gf256._map_in_parts(job, [0, 1], length)
            ahead(i, 2)
            del piece  # before the next piece is decoded
        check()

    dispersal.write_files({out_path: None}, (), write)
    return length, sha.hexdigest()


def _join_frags(paths: list[Path], out_path: Path) -> tuple[int, str]:
    """``_write_join`` of the files at ``paths``, the proposed scheme's lost data files
    rebuilt from any parity files among them.  Its errors are raised, with nothing
    written."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(contextlib.closing(  # no digests to check them against
            dispersal.read_file(path, sparse=True, hashed=False))) for path in paths]
        for f in files:
            f.fill(min(len(f), wire.HEAD))
        parity = [f for f in files if bytes(f.buf[:4]) == wire.MAGIC_PARITY]
        data = [f for f in files if f not in parity]
        if parity and all(bytes(f.buf[:4]) == wire.MAGIC_PROPOSED for f in data):
            files += dispersal.rebuild_files(
                {wire.load_fragment(f.buf).index: f for f in data}, parity).values()
        return _write_join(out_path, files)


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

    Fragment files are given as ``--frags FILE [FILE ...]``; a pipe is read
    whole first.  The proposed scheme's files, and its parity's, are read as
    they are decoded (``_write_join``), each lost data file rebuilt from parity
    a piece at a time; a baseline's files are read whole.  An error of
    ``--frags`` is reported as it is met.  With ``--manifest``, the files go
    through ``dispersal.read_set``, which sets damaged files aside, rebuilds
    from parity and reports what it cannot mend.
    """
    frag_paths = ((first_frag,) if first_frag else ()) + tuple(more_frags)
    if manifest_path is None and not frag_paths:
        raise ParameterError("either --manifest or --frags is required")
    if manifest_path is not None and frag_paths:
        raise ParameterError("--manifest and --frags are mutually exclusive")

    if manifest_path is not None:
        manifest = dispersal.Manifest.load(manifest_path)
        base = manifest_path.parent
        recovered, joined = dispersal.read_set(
            manifest, lambda entry: dispersal.read_file(base / entry.name, sparse=True),
            lambda recovered: _write_join(out_path, list(recovered.files.values()),
                                          recovered.check))
        _report(recovered)
    else:
        joined = _join_frags(list(frag_paths), out_path)
    length, digest = joined
    _note(f"wrote {length} bytes to {out_path}")
    click.echo(digest)


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


def _disperse_streamed(manifest: dispersal.Manifest, base: Path, sites: list,
                       record: Callable) -> dispersal.Manifest:
    """``dispersal.store`` of the manifest's files in ``base``, each put as it is read
    (``dispersal.Streamed``), one object per part.

    Every file's head is read and parsed first, and the data files checked as
    one set, before anything is put; each file's digest is checked as it is
    put, before the put commits.  On an error nothing is stored, and the
    error raised is that of the first file in manifest order that is lost or
    damaged (``dispersal.check_files``), or, when all verify, the error met."""
    with contextlib.ExitStack() as stack:
        try:
            files, frags = {}, []
            for entry in manifest.fragments:
                f = files[entry] = dispersal.read_file(base / entry.name, sparse=True)
                stack.callback(f.close)
                f.fill(min(len(f.buf), wire.HEAD))
                if entry.kind == "data":
                    frags.append(wire.load_fragment(f.buf))
                else:
                    wire.load_parity_fragment(f.buf)  # parse check only
            check_fragments(frags)
            return dispersal.store(
                manifest, {e: dispersal.Streamed(f, e.sha256, e.name) for e, f in files.items()},
                sites, record=record)
        except (FragmentationError, OSError):
            dispersal.check_files(manifest, base)
            raise


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
    out_path = manifest_out or (manifest_path.parent / "dispersal.json")

    def record(stored: dispersal.Manifest) -> None:
        dispersal.write_files({out_path: stored.to_json()})

    stored = _disperse_streamed(manifest, manifest_path.parent, sites, record)
    _note(f"dispersal manifest written to {out_path}")
    click.echo("fragment\tsite")
    for entry in stored.fragments:
        click.echo(f"{PurePosixPath(entry.name).stem}\t{entry.site}")


@main.command("fetch")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(path_type=Path))
@click.option("--sites", "sites_spec", required=True, help="Comma-separated site directories.")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
@_guard
def cmd_fetch(manifest_path: Path, sites_spec: str, out_dir: Path):
    """Retrieve dispersed fragments back into a local directory."""
    manifest = dispersal.Manifest.load(manifest_path)
    data = [entry for entry in manifest.fragments if entry.kind == "data"]
    entries = [replace(e, site=None, name=PurePosixPath(e.name).name) for e in data]
    local = replace(manifest, fragments=entries)

    def write(recovered: dispersal.Recovered) -> None:
        # the data files read or rebuilt, in order: a baseline's lost ones stay lost
        names = [PurePosixPath(e.name).name for e in recovered.files if e.kind == "data"]
        _write_split(out_dir, names, [None] * len(names), local.to_json(), fill=recovered.copy)

    _report(dispersal.fetch(manifest, _parse_sites(sites_spec, manifest), write))
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
    from . import analysis  # only this command needs it

    data = dispersal.read_file(in_path)
    n = k if n is None else n
    fragments = split(SchemeId(scheme), data, k, n, c, block_size, random.SystemRandom())
    reports = analysis.analyze_fragments(fragments, data)
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
    from . import bench  # bench splits and joins through this module

    json_path = out_path.with_suffix(".json") if out_path else None
    if out_path and json_path == out_path:
        raise ParameterError(f"--out {out_path} is where the JSON results go;"
                             " give the CSV another suffix")
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
    csv_text = bench.emit_results(results, csv_path=out_path, json_path=json_path)
    if out_path:
        _note(f"results written to {out_path}")
    click.echo(csv_text, nl=False)


if __name__ == "__main__":
    main()
