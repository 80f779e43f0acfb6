"""Dispersal of fragments over independent storage sites.

Fragment j goes to site j mod c.  That single rule guarantees the two
separation properties the scheme's security rests on: the c-1 neighbor
fragments that feed a fragment's encoding never share its site, and the c
shares of any one permutation array land on c distinct sites.  Assignments
are validated before anything is written, and arbitrary (user-supplied)
assignments can be checked for the exact violating pairs.

Dispersal moves bytes, not fragments: ``store`` writes the files that
``split`` serialized, verbatim, and ``recover`` reads them back, from the
sites (``fetch``) or a local directory (``kfrag join --manifest``), checking
each against the SHA-256 digest recorded at split time; so the split,
dispersal and fetched manifests carry the same digests.  One rule serves
``fetch`` and ``join``: a damaged file is set aside as if lost, lost data
files are rebuilt from parity (n > k) and digest-checked too, and the damage
is an integrity error only when fewer than k of the n files verify.  Both
commands name each file set aside or rebuilt on stderr.  ``disperse`` reads
the same way but refuses any lost or damaged file.  Every file kfrag writes
goes through ``write_files``: all of a set or none, a command's manifest last.
Every file it reads, but for the JSON manifests, comes in through ``read_file``:
into one numpy buffer, filled in place and returned read-only.

A site is its backend, and its index is its position in the list of sites.
A local-directory backend ships by default; any object with put/get/delete
can stand in for a real object store, as long as ``get`` may run on several
threads at once (``fetch`` reads large sets in parts).  The manifest stays
on the client: placing it at any provider would hand that provider the
layout.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import stat
import time
import uuid
from collections.abc import Callable, Iterable
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .baselines import SchemeId
from .erasure import ParityParams, rs_decode
from .errors import IntegrityError, ParameterError, StorageError, ThresholdError
from . import gf256, wire


def write_files(files: dict[Path, bytes | Iterable[bytes]],
                dirs: Iterable[Path] = ()) -> list[Path]:
    """Write every file, creating missing directories, or leave all as they were.

    A file's content is one buffer, or an iterable of buffers written in order,
    each let go of before the next is asked for.  The missing directories are
    made first: any of ``dirs`` and their parents, then those of each file.
    Each file then goes to a temporary name in its own directory, the files
    split into parts as by ``gf256._map_in_parts`` by the bytes of their
    single buffers, and only once all are written is each renamed into place,
    in order, so the last one commits the set.  Returns the directories it
    created, innermost first.  On failure, a content iterable's own error
    included, it removes the temporaries and those directories again and
    re-raises; an OSError names the file that could not be written, not its
    temporary name."""
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in files}
    made: list[Path] = []

    def make(directory: Path) -> None:
        missing = [d for d in (directory, *directory.parents) if not d.exists()]
        for d in reversed(missing):
            d.mkdir()
            made.insert(0, d)

    def write(path: Path) -> None:
        content = files[path]
        with _naming(path), open(temps[path], "wb") as fh:
            for buf in [content] if _is_buffer(content) else content:
                fh.write(buf)
                del buf  # before the next buffer is made

    try:
        for directory in dirs:
            make(directory)
        for path in files:
            with _naming(path):
                make(path.parent)
        single = [len(content) for content in files.values() if _is_buffer(content)]
        gf256._map_in_parts(write, list(files), sum(single))
        for path, tmp in temps.items():
            with _naming(path):
                os.replace(tmp, path)
    except BaseException:
        for tmp in temps.values():
            with contextlib.suppress(OSError):  # NotADirectoryError too, under a file
                tmp.unlink()
        _remove_dirs(made)
        raise
    return made


def _is_buffer(content) -> bool:
    """Whether a file's content is one buffer, not an iterable of them."""
    try:
        memoryview(content)
    except TypeError:
        return False
    return True


@contextlib.contextmanager
def _naming(path: Path):
    """Re-raise an OSError of the block as one that names ``path``."""
    try:
        yield
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def read_file(path: Path) -> memoryview:
    """The bytes of the file at ``path``, read-only.

    A regular file is read into one numpy buffer sized from ``fstat``: numpy
    asks for huge pages for a large array where ``bytes`` would fault in 4 KiB
    at a time.  ``os.preadv`` fills it from the one descriptor, in parts as by
    ``gf256._in_parts``, so in two parts from 8 MiB; the bytes end where the
    first part that came up short ended, so a file that shrank since ``fstat``
    gives its bytes with no zero tail.  A pipe or other non-regular file is
    read to its end."""
    with open(path, "rb", buffering=0) as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            return memoryview(fh.read())
        buf = np.empty(info.st_size, dtype=np.uint8)
        short: list[int] = []  # where each part that came up short ended

        def part(lo: int, hi: int) -> None:
            while lo < hi and (n := os.preadv(fh.fileno(), [buf[lo:hi]], lo)):
                lo += n
            if lo < hi:
                short.append(lo)

        gf256._in_parts(len(buf), len(buf), part)
    buf = buf[: min(short, default=len(buf))]  # the first short part ended first
    buf.setflags(write=False)
    return memoryview(buf)


def _remove_dirs(dirs: list[Path]) -> None:
    """Remove each directory, innermost first, that is still empty."""
    for directory in dirs:
        with contextlib.suppress(OSError):
            directory.rmdir()


class LocalDirectoryBackend:
    """Object store on a local directory; object names may contain slashes."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._made: list[Path] = []  # the directories puts created and no delete removed

    def _path(self, name: str) -> Path:
        path = (self.root / name).resolve()
        if not path.is_relative_to(self.root.resolve()):
            raise StorageError(f"object name escapes the site root: {name!r}")
        return path

    def put(self, name: str, data: bytes) -> None:
        path = self._path(name)
        if path.exists():
            raise StorageError(f"object already exists: {name!r}")
        try:
            self._made += write_files({path: data})
        except OSError as exc:
            raise StorageError(f"cannot write {name!r}: {exc}") from exc

    def get(self, name: str) -> memoryview:
        path = self._path(name)
        if not path.exists():
            raise StorageError(f"object not found: {name!r}")
        return read_file(path)

    def delete(self, name: str) -> None:
        """Remove the object, and every directory a put created that is now empty,
        whichever put created it."""
        path = self._path(name)
        if path.exists():
            path.unlink()
        _remove_dirs(sorted(self._made, key=lambda d: len(d.parts), reverse=True))
        self._made = [d for d in self._made if d.exists()]


@dataclass(frozen=True)
class Violation:
    kind: str  # "neighbor" or "permutation-group"
    fragments: tuple[int, ...]
    site: int


def assign_sites(k: int, c: int) -> tuple[int, ...]:
    """The site of each fragment by the j mod c rule, checked against all separation invariants."""
    if c < 2 or k < c or k % c != 0:
        raise ParameterError(f"k must be a positive multiple of c >= 2, got k={k}, c={c}")
    assignment = tuple(j % c for j in range(k))
    violations = validate_assignment(assignment, k, c)
    if violations:
        raise RuntimeError(f"internal error: rule produced violations {violations}")
    return assignment


def validate_assignment(assignment: tuple[int, ...], k: int, c: int) -> list[Violation]:
    """Check neighbor and permutation-share separation, fragment j being on site assignment[j].

    Violations are data, not errors: the list is empty for a good assignment
    and names the exact offending fragment groups otherwise.
    """
    if len(assignment) != k:
        raise ParameterError(f"assignment covers {len(assignment)} fragments, expected {k}")
    out: list[Violation] = []
    for j in range(k):
        for t in range(1, c):
            neighbor = (j + t) % k
            if neighbor != j and assignment[j] == assignment[neighbor]:
                pair = (min(j, neighbor), max(j, neighbor))
                v = Violation(kind="neighbor", fragments=pair, site=assignment[j])
                if v not in out:
                    out.append(v)
    for r in range(k // c):
        group = tuple(r * c + z for z in range(c))
        sites = [assignment[j] for j in group]
        if len(set(sites)) != c:
            dup = max(set(sites), key=sites.count)
            out.append(Violation(kind="permutation-group", fragments=group, site=dup))
    return out


@dataclass(frozen=True)
class ManifestEntry:
    index: int
    site: int | None
    name: str
    sha256: str
    kind: str = "data"  # "data" or "parity"


# field annotations are strings here (postponed evaluation): each scalar one
# names its JSON type, and the one other annotation, the fragment list, is a list
_JSON_TYPES = {"int": int, "str": str, "None": type(None)}


def _fields_from(cls, doc: dict) -> dict:
    """The fields of dataclass ``cls`` in ``doc``, each of its declared type."""
    values = {}
    for f in fields(cls):
        if f.name in doc:
            value = values[f.name] = doc[f.name]
            if type(value) not in [_JSON_TYPES.get(t, list) for t in f.type.split(" | ")]:
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
        elif f.default is MISSING:
            raise TypeError(f"no {f.name!r} field")
    return values


@dataclass
class Manifest:
    scheme: str
    k: int
    c: int
    block_size: int
    n: int
    payload_length: int
    created: str
    run_id: str
    fragments: list[ManifestEntry]
    cipher: str | None = None
    digest: str | None = None

    @property
    def stored_bytes(self) -> int:
        """About the bytes of the n files: n / k times the payload."""
        return self.payload_length * self.n // max(self.k, 1)

    def to_dict(self) -> dict:
        doc = asdict(self)
        for key in ("cipher", "digest"):
            if not doc[key]:
                del doc[key]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Manifest":
        """The manifest ``doc`` holds; entries are n distinct indices, parity from k on."""
        values = _fields_from(cls, doc)
        entries = [ManifestEntry(**_fields_from(ManifestEntry, e)) for e in values["fragments"]]
        k, n = values["k"], values["n"]
        indices = [e.index for e in entries]
        if len(set(indices)) != len(indices) or any(not 0 <= i < n for i in indices):
            raise ValueError(f"fragment indices {indices} must be distinct and in [0, {n})")
        parity_from = k if values["scheme"] == SchemeId.PROPOSED else n  # the one with parity
        for e in entries:
            if e.kind != ("parity" if e.index >= parity_from else "data"):
                raise ValueError(f"fragment {e.index} cannot be of kind {e.kind!r}")
        return cls(**{**values, "fragments": entries})

    def to_json(self) -> bytes:
        return json.dumps(self.to_dict(), indent=2).encode()

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        raw = Path(path).read_bytes()
        try:
            return cls.from_dict(json.loads(raw))
        except (ValueError, TypeError) as exc:
            raise ParameterError(f"malformed manifest {path}: {exc}") from None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def build_manifest(
    scheme: str,
    k: int,
    c: int,
    block_size: int,
    n: int,
    payload_length: int,
    blobs: list[bytes],
    cipher: str | None = None,
    digest: str | None = None,
) -> Manifest:
    """The manifest of one split: an entry per serialized file, in order.

    ``blobs`` holds the fragment files with any parity files after them.  The
    magic of each file gives its kind and its extension: fragment i is named
    ``f{i}.<ext>`` and parity row r, global index k + r, ``p{r}.kpar``.
    """
    digests = gf256._map_in_parts(_sha256, blobs, sum(map(len, blobs)))
    entries = []
    for index, (blob, digest) in enumerate(zip(blobs, digests)):
        magic = bytes(blob[:4])
        kind = "parity" if magic == wire.MAGIC_PARITY else "data"
        stem = f"p{index - k}" if kind == "parity" else f"f{index}"
        entries.append(
            ManifestEntry(index=index, site=None, name=f"{stem}{wire.EXTENSIONS[magic]}",
                          sha256=digest, kind=kind)
        )
    return Manifest(
        scheme=scheme,
        k=k,
        c=c,
        block_size=block_size,
        n=n,
        payload_length=payload_length,
        fragments=entries,
        created=_now(),
        run_id=uuid.uuid4().hex[:12],
        cipher=cipher,
        digest=digest,
    )


def site_count(manifest: Manifest) -> int:
    """The c primary sites, plus one dedicated site when there is parity."""
    return manifest.c + any(e.kind == "parity" for e in manifest.fragments)


def store(
    manifest: Manifest,
    blobs: dict[ManifestEntry, bytes],
    sites: list[LocalDirectoryBackend],
    run_id: str | None = None,
    record: Callable[[Manifest], None] = lambda stored: None,
) -> Manifest:
    """Write each verified file to its site and return the dispersal manifest.

    ``blobs`` maps every entry of the split manifest to the bytes its digest
    was checked against; each is written verbatim as ``{run}/{entry.name}``.
    Data fragment j goes to site j mod c and every parity file to one
    dedicated extra site appended after the c primary sites.  The returned
    manifest keeps the split manifest's digests and adds site and run id;
    ``record`` is handed it to save it.  Any missing site directory is made
    first, with its missing parents, on the calling thread; the puts then run
    in parts as by ``gf256._in_parts``, those of one site directory in order
    in one part, so no two threads make one directory.  When a put or
    ``record`` fails, once every part has ended the objects written are
    removed, each site's last first, with the directories their puts created,
    then the site directories made here, and no manifest is produced; a
    failed put, or a site directory that cannot be made, is a StorageError
    that names its site.
    """
    expected = site_count(manifest)
    if len(sites) != expected:
        raise ParameterError(f"expected {expected} sites, got {len(sites)}")
    assignment = assign_sites(manifest.k, manifest.c)
    run = run_id or uuid.uuid4().hex[:12]
    placed = [
        replace(entry, name=f"{run}/{entry.name}",
                site=manifest.c if entry.kind == "parity" else assignment[entry.index])
        for entry in manifest.fragments
    ]

    # one part per site directory, its puts in order: no two threads make one run directory
    roots = [site.root.resolve() for site in sites]
    by_dir: dict[Path, list[tuple[ManifestEntry, ManifestEntry]]] = {}
    for entry, dest in zip(manifest.fragments, placed):
        by_dir.setdefault(roots[dest.site], []).append((entry, dest))
    groups = list(by_dir.values())
    written: list[ManifestEntry] = []
    made: list[Path] = []  # the site directories and their parents made here, innermost first

    def put(lo: int, hi: int) -> None:
        for entry, dest in (pair for group in groups[lo:hi] for pair in group):
            try:
                sites[dest.site].put(dest.name, blobs[entry])
            except StorageError as exc:
                raise StorageError(
                    f"store failed at site {dest.site}: {exc}", site=dest.site
                ) from exc
            written.append(dest)

    try:
        for i, root in enumerate(roots):  # here, so no two parts make a parent two sites share
            try:
                made[:0] = write_files({}, [root])
            except OSError as exc:
                raise StorageError(f"store failed at site {i}: {exc}", site=i) from exc
        gf256._in_parts(len(groups), sum(len(blobs[e]) for e in manifest.fragments), put)
        stored = replace(manifest, fragments=placed, created=_now(), run_id=run)
        record(stored)
    except BaseException:
        for dest in reversed(written):
            sites[dest.site].delete(dest.name)
        _remove_dirs(made)
        raise
    return stored


def read(manifest: Manifest, get: Callable[[ManifestEntry], bytes]) -> list:
    """Each entry's bytes, or the error reading it gave: a damaged one gives an IntegrityError.

    ``get(entry)`` raises StorageError or FileNotFoundError for a lost object.  The
    reads and digests run in parts; the caller checks the results in manifest order.
    """

    def one(entry: ManifestEntry):
        try:
            blob = get(entry)
        except (StorageError, OSError) as exc:
            return exc
        if _sha256(blob) == entry.sha256:
            return blob
        site = "" if entry.site is None else f" at site {entry.site}"
        return IntegrityError(f"digest mismatch for {entry.name!r}{site}")

    return gf256._map_in_parts(one, manifest.fragments, manifest.stored_bytes)


def local_files(base: Path) -> Callable[[ManifestEntry], bytes]:
    """``get`` for the files a manifest names in directory ``base``."""
    return lambda entry: read_file(base / entry.name)


def rebuild(data: list[tuple[int, bytes]], parity: list[bytes]) -> list[bytes]:
    """The k data files of a parity set from any k of its files, data ones as (index, bytes).

    Each parity file names k and n; the data files given come back as they are."""
    rows = [wire.load_parity_fragment(blob) for blob in parity]
    params = ParityParams(k=rows[0].k, n=rows[0].n)
    return rs_decode([*data, *((row.index, row.data) for row in rows)], params)


@dataclass(frozen=True)
class Recovered:
    """Each entry that verified or was rebuilt, with its bytes, in manifest order;
    the entries set aside for a digest mismatch, with that error; the ones rebuilt."""

    blobs: dict[ManifestEntry, bytes]
    damaged: dict[ManifestEntry, IntegrityError]
    rebuilt: list[ManifestEntry]


def recover(manifest: Manifest, get: Callable[[ManifestEntry], bytes]) -> Recovered:
    """Read back every entry, setting damaged ones aside and rebuilding lost data from parity.

    When fewer than k entries verify, the first damaged one is an integrity
    error, or, when none is damaged, the threshold error lists the data
    entries that are gone.  Each rebuilt file is checked against its digest.
    """
    blobs: dict[ManifestEntry, bytes] = {}
    damaged: dict[ManifestEntry, IntegrityError] = {}
    for entry, got in zip(manifest.fragments, read(manifest, get)):
        if isinstance(got, IntegrityError):
            damaged[entry] = got
        elif not isinstance(got, Exception):
            blobs[entry] = got
        elif not isinstance(got, (StorageError, FileNotFoundError)):
            raise got  # neither lost nor damaged
    missing = [e for e in manifest.fragments if e.kind == "data" and e not in blobs]
    if missing and len(blobs) < manifest.k:
        if damaged:
            raise next(iter(damaged.values()))
        lost = [e.index for e in missing]
        raise ThresholdError(f"threshold not met: missing fragments {lost}", missing=lost)
    parity = [blob for entry, blob in blobs.items() if entry.kind == "parity"]
    if not (missing and parity):
        return Recovered(blobs, damaged, [])
    files = rebuild([(e.index, b) for e, b in blobs.items() if e.kind == "data"], parity)
    for entry in missing:
        if _sha256(files[entry.index]) != entry.sha256:
            raise IntegrityError(f"digest mismatch for rebuilt {entry.name!r}")
        blobs[entry] = files[entry.index]
    return Recovered({e: blobs[e] for e in manifest.fragments if e in blobs}, damaged, missing)


def fetch(manifest: Manifest, sites: list[LocalDirectoryBackend]) -> Recovered:
    """``recover`` from the sites the manifest places its entries on, site i being ``sites[i]``."""
    for entry in manifest.fragments:
        if entry.site not in range(len(sites)):  # a negative index would pick a site from the end
            raise ParameterError(f"manifest references unknown site {entry.site}")
    return recover(manifest, lambda entry: sites[entry.site].get(entry.name))
