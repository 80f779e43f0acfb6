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
commands name each file set aside or rebuilt on stderr.  When ``streamable``
holds (a stat finds every data file, and every parity file is lost or
verifies), neither holds the set: ``fetch`` hands its caller a function per
data object that gets, checks and writes it, and ``kfrag join`` reads each
file a segment at a time through a ``SparseFile``, hashing it as it goes.
Either pass goes back to ``recover`` on a digest mismatch, with nothing
committed.  ``disperse`` refuses any lost or damaged file; ``kfrag disperse``
puts each file as it reads it, a piece at a time (``Streamed``), and never
reads the set whole: when that pass fails, with what it put removed,
``check_files`` names the first lost or damaged file as ``read`` would.
Every file kfrag writes goes through ``write_files``: all of a set or none,
a command's manifest last.  Every file it reads, but for the JSON
manifests, comes in through ``read_file``: into one numpy buffer, filled in
place and returned read-only, or, sparse, as a SparseFile.

A site is its backend, and its index is its position in the list of sites.
A local-directory backend ships by default.  Another object with
put/get/exists/delete can stand in for a real object store as long as
``get`` may run on several threads at once (``fetch`` reads large sets in
parts), ``put`` takes an object's bytes or a function that writes them
into an open file, and, for ``store``, as long as it has a ``root`` directory:
``store`` makes each site's root and refuses two sites whose roots are one
directory or lie one inside the other, since one provider would then hold
the rows of two sites.
The manifest stays on the client: placing it at any provider would hand
that provider the layout.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import itertools
import json
import mmap
import os
import stat
import time
import uuid
from collections.abc import Callable, Iterable
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .erasure import ParityParams, rs_decode
from .errors import (
    FragmentationError, IntegrityError, ParameterError, StorageError, ThresholdError,
)
from . import gf256, wire


def write_files(files: dict[Path, bytes | Callable[[BinaryIO], object] | None],
                dirs: Iterable[Path] = (), nbytes: int | None = None,
                fill: Callable[[list[Callable[[bytes], object]]], object] | None = None,
                ) -> list[Path]:
    """Write every file, creating missing directories, or leave all as they were.

    A file's content is one buffer, a function that writes the file into the
    open temporary it is handed, or None: ``fill`` writes the files whose
    content is None together, handed one function per file, in order, that
    appends a buffer to it.  The missing directories are made first: any of
    ``dirs`` and their parents, then those of each file.  Each file then goes
    to a temporary name in its own directory: first ``fill``'s, on the calling
    thread, then the others, split into parts as by ``gf256._map_in_parts``
    by ``nbytes``, the bytes the files hold (by default the bytes of their
    buffers: give it when functions write them), and only once all are
    written is each renamed into place, in order, so the last one commits
    the set.  Returns the directories it created, innermost first.  On
    failure, a content function's own error included, it removes the
    temporaries and those directories again and re-raises; an OSError names
    the file that could not be written, not its temporary name."""
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
            if callable(content):
                content(fh)
            else:
                fh.write(content)

    def appender(path: Path, fh: BinaryIO) -> Callable[[bytes], object]:
        def append(buf: bytes) -> None:
            with _naming(path):
                fh.write(buf)

        return append

    try:
        for directory in dirs:
            make(directory)
        for path in files:
            with _naming(path):
                make(path.parent)
        together = [path for path, content in files.items() if content is None]
        if together:
            with contextlib.ExitStack() as stack:
                appends = []
                for path in together:
                    with _naming(path):
                        appends.append(appender(path, stack.enter_context(open(temps[path], "wb"))))
                fill(appends)
        rest = [path for path, content in files.items() if content is not None]
        if nbytes is None:
            nbytes = sum(len(files[path]) for path in rest if not callable(files[path]))
        gf256._map_in_parts(write, rest, nbytes)
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


@contextlib.contextmanager
def _naming(path: Path):
    """Re-raise an OSError of the block as one that names ``path``."""
    try:
        yield
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def read_file(path: Path, sparse: bool = False, hashed: bool = True) -> memoryview | SparseFile:
    """The bytes of the file at ``path``, read-only.

    A regular file is read into one numpy buffer sized from ``fstat``: numpy
    asks for huge pages for a large array where ``bytes`` would fault in 4 KiB
    at a time.  ``os.preadv`` fills it from the one descriptor, in parts as by
    ``gf256._in_parts``, so in two parts from 8 MiB; the bytes end where the
    first part that came up short ended, so a file that shrank since ``fstat``
    gives its bytes with no zero tail.  A pipe or other non-regular file is
    read to its end.  With ``sparse``, a regular file is not read here: it
    comes back as a SparseFile, open, to be read piece by piece, and hashed
    as it is unless not ``hashed``; any other file is a StorageError."""
    with open(path, "rb", buffering=0) as fh:
        info = os.fstat(fh.fileno())
        if sparse:
            if not stat.S_ISREG(info.st_mode):
                raise StorageError(f"not a regular file: {path}")
            return SparseFile(os.dup(fh.fileno()), info.st_size, hashed)
        if not stat.S_ISREG(info.st_mode):
            return memoryview(fh.read())
        buf = np.empty(info.st_size, dtype=np.uint8)
        buf = buf[: _read_parts(fh.fileno(), buf, 0, len(buf))]
    buf.setflags(write=False)
    return memoryview(buf)


def _read_parts(fd: int, buf: np.ndarray, start: int, end: int) -> int:
    """Read the bytes ``start`` to ``end`` of the file ``fd`` into the same bytes of
    ``buf`` with ``os.preadv``, in parts as by ``gf256._in_parts``; returns where
    the first part that came up short ended, or ``end``."""
    short: list[int] = []  # where each part that came up short ended

    def part(lo: int, hi: int) -> None:
        lo, hi = start + lo, start + hi
        while lo < hi and (n := os.preadv(fd, [buf[lo:hi]], lo)):
            lo += n
        if lo < hi:
            short.append(lo)

    gf256._in_parts(end - start, end - start, part)
    return min(short, default=end)  # the first short part ended first


# a fill of this many bytes asks for huge pages, as numpy does for an array
_HUGE_FILL = 4 << 20


def _anonymous(size: int) -> mmap.mmap:
    """A private anonymous mapping of ``size`` bytes: MADV_DONTNEED frees its pages,
    where a shared mapping's would stay.  A MemoryError when there is no room."""
    try:
        return mmap.mmap(-1, max(size, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except OSError as exc:
        if exc.errno == errno.ENOMEM:  # as numpy reports a buffer it cannot get
            raise MemoryError(f"cannot map {size} bytes") from exc
        raise


def mapped(size: int) -> np.ndarray:
    """A writable uint8 array of ``size`` bytes in an anonymous mapping of its own,
    with huge pages from _HUGE_FILL bytes.  Its pages go back to the system once
    it and every view of it are dropped, where the C heap may keep the pages of
    a large numpy buffer it freed (once one such buffer has been freed, glibc
    serves the next of at most its size from the heap), so a buffer made anew
    at each step of a loop holds no more than one step's pages."""
    area = _anonymous(size)
    if size >= _HUGE_FILL:
        area.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(area, dtype=np.uint8, count=size)


class SparseFile:
    """A regular file read in file order, piece by piece, into an anonymous
    mapping of its size, and hashed as it is read.

    ``buf`` is the whole file, read-only: the bytes not read yet, and those
    released, read as zeros and hold no memory.  ``fill(end)`` reads on from
    where the last fill ended up to ``end``, in parts as by
    ``gf256._in_parts``, and adds those bytes to ``sha``, if ``hashed``;
    ``release(end)`` hands the pages that lie wholly before
    ``end`` back to the system (``MADV_DONTNEED``).  A file that ends before a
    fill does is an IntegrityError.  ``close`` closes the descriptor; the
    mapping lives as long as ``buf`` or a view of it does."""

    def __init__(self, fd: int, size: int, hashed: bool = True):
        self._fd = fd
        try:
            self._map = _anonymous(size)
        except BaseException:
            os.close(fd)
            raise
        self._bytes = np.frombuffer(self._map, dtype=np.uint8, count=size)
        view = self._bytes.view()
        view.setflags(write=False)
        self.buf = memoryview(view)
        self.sha = hashlib.sha256() if hashed else None
        self._read = self._released = 0

    def fill(self, end: int) -> None:
        start = self._read
        if end - start >= _HUGE_FILL:
            low = start - start % mmap.PAGESIZE
            self._map.madvise(mmap.MADV_HUGEPAGE, low, end - low)
        if (got := _read_parts(self._fd, self._bytes, start, end)) < end:
            raise IntegrityError(f"file ended at byte {got} of {len(self.buf)}")
        self._read = max(start, end)
        if self.sha is not None:
            self.sha.update(self._bytes[start:end])

    def release(self, end: int) -> None:
        end -= end % mmap.PAGESIZE
        if end > self._released:
            self._map.madvise(mmap.MADV_DONTNEED, self._released, end - self._released)
            self._released = end

    def copy(self, fh: BinaryIO | None) -> None:
        """Write the whole file into ``fh``, or with None only hash it: the bytes read so
        far, then the rest, read on and hashed a piece at a time through one buffer,
        not into the mapping."""
        write = fh.write if fh else lambda piece: None
        write(self.buf[: self._read])
        piece = np.empty(min(_PIECE, len(self.buf)), dtype=np.uint8)
        while self._read < len(self.buf):
            n = os.preadv(self._fd, [piece[: len(self.buf) - self._read]], self._read)
            if not n:
                raise IntegrityError(f"file ended at byte {self._read} of {len(self.buf)}")
            write(piece[:n])
            self.sha.update(piece[:n])
            self._read += n

    def close(self) -> None:
        os.close(self._fd)


# the bytes SparseFile.copy reads, hashes and writes at a time
_PIECE = 1 << 20


class Streamed:
    """An object to ``put`` as it is read: called with the open file it goes to
    (or None), it copies the SparseFile ``file`` into it, then raises an
    IntegrityError that names ``name`` unless the file's digest is ``sha256``,
    so a put of a damaged file commits nothing.  Its length is the file's."""

    def __init__(self, file: SparseFile, sha256: str, name: str):
        self.file, self.sha256, self.name = file, sha256, name

    def __len__(self) -> int:
        return len(self.file.buf)

    def __call__(self, fh: BinaryIO) -> None:
        self.file.copy(fh)
        if self.file.sha.hexdigest() != self.sha256:
            raise IntegrityError(f"digest mismatch for {self.name!r}")


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

    def put(self, name: str, data: bytes | Callable[[BinaryIO], object]) -> None:
        """Store ``data``, the object's bytes or a function that writes them into
        the open file it is handed; its error leaves no object."""
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

    def exists(self, name: str) -> bool:
        return self._path(name).exists()

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
        """The manifest ``doc`` holds; entries are n distinct indices, parity from k on
        for a scheme whose files parity may follow, and none for any other."""
        values = _fields_from(cls, doc)
        entries = [ManifestEntry(**_fields_from(ManifestEntry, e)) for e in values["fragments"]]
        k, n = values["k"], values["n"]
        indices = [e.index for e in entries]
        if len(set(indices)) != len(indices) or any(not 0 <= i < n for i in indices):
            raise ValueError(f"fragment indices {indices} must be distinct and in [0, {n})")
        row = wire.SCHEMES.get(values["scheme"])
        parity_from = k if row and row.parity else n
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
    sha256: list[str] | None = None,
) -> Manifest:
    """The manifest of one split: an entry per serialized file, in order.

    ``blobs`` holds the fragment files with any parity files after them, each
    hashed here, or, with their ``sha256`` digests, their first bytes.  The
    magic of each file gives its kind and its extension (``file_name``).
    """
    if sha256 is None:
        sha256 = gf256._map_in_parts(_sha256, blobs, sum(map(len, blobs)))
    entries = []
    for index, (blob, sha) in enumerate(zip(blobs, sha256)):
        magic = bytes(blob[:4])
        kind = "parity" if magic == wire.MAGIC_PARITY else "data"
        entries.append(ManifestEntry(index=index, site=None, name=file_name(index, k, magic),
                                     sha256=sha, kind=kind))
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


def file_name(index: int, k: int, magic: bytes) -> str:
    """The name of a split's file of global index ``index``, whose magic gives its
    kind and extension: fragment i is ``f{i}.<ext>``, parity row r (index k + r)
    ``p{r}.kpar``."""
    stem = f"p{index - k}" if magic == wire.MAGIC_PARITY else f"f{index}"
    return stem + wire.EXTENSIONS[magic]


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
    was checked against, or to a ``Streamed`` file that checks them as it is
    put; each is written verbatim as ``{run}/{entry.name}``.
    Data fragment j goes to site j mod c and every parity file to one
    dedicated extra site appended after the c primary sites.  The returned
    manifest keeps the split manifest's digests and adds site and run id;
    ``record`` is handed it to save it.  Sites whose directories are one
    directory or lie one inside the other are a ParameterError, before
    anything is made.  Any missing site directory is made first, with its
    missing parents, on the calling thread; the puts then run in parts as by
    ``gf256._in_parts``, those of one site in order in one part, so no two
    threads make one directory.  When a put or
    ``record`` fails, once every part has ended the objects written are
    removed, each site's last first, with the directories their puts created,
    then the site directories made here, and no manifest is produced; a
    failed put, or a site directory that cannot be made, is a StorageError
    that names its site.
    """
    expected = site_count(manifest)
    if len(sites) != expected:
        raise ParameterError(f"expected {expected} sites, got {len(sites)}")
    roots = [site.root.resolve() for site in sites]
    for (i, outer), (j, inner) in itertools.permutations(enumerate(roots), 2):
        if inner.is_relative_to(outer):
            raise ParameterError(f"sites {i} and {j} overlap: "
                                 f"{sites[j].root} is or lies in {sites[i].root}")
    assignment = assign_sites(manifest.k, manifest.c)
    run = run_id or uuid.uuid4().hex[:12]
    placed = [
        replace(entry, name=f"{run}/{entry.name}",
                site=manifest.c if entry.kind == "parity" else assignment[entry.index])
        for entry in manifest.fragments
    ]

    # one part per site, its puts in order: no two threads make one run directory
    pairs = list(zip(manifest.fragments, placed))
    groups = [[(e, dest) for e, dest in pairs if dest.site == i] for i in range(len(sites))]
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
    return gf256._map_in_parts(lambda entry: _checked(entry, get), manifest.fragments,
                               manifest.stored_bytes)


def check_files(manifest: Manifest, base: Path) -> None:
    """Raise the first error in manifest order ``read`` would give for the files in
    ``base``, each read and hashed a piece at a time (``Streamed``), not whole."""
    for entry in manifest.fragments:
        with contextlib.closing(read_file(base / entry.name, sparse=True)) as f:
            Streamed(f, entry.sha256, entry.name)(None)


def _checked(entry: ManifestEntry, get: Callable[[ManifestEntry], bytes]):
    """The entry's bytes, or the error reading them gave or the IntegrityError of a mismatch."""
    try:
        blob = get(entry)
    except (StorageError, OSError) as exc:
        return exc
    if _sha256(blob) == entry.sha256:
        return blob
    site = "" if entry.site is None else f" at site {entry.site}"
    return IntegrityError(f"digest mismatch for {entry.name!r}{site}")


def _lost(got) -> bool:
    return isinstance(got, (StorageError, FileNotFoundError))


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
    """Each entry that verified or was rebuilt, with its bytes, in manifest order
    (or, from a streamed ``fetch``, a function that writes them); the entries set
    aside for a digest mismatch, with that error; the ones rebuilt."""

    blobs: dict[ManifestEntry, bytes | Callable[[BinaryIO], object]]
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
        elif not _lost(got):
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


def streamable(manifest: Manifest, get: Callable[[ManifestEntry], bytes],
               exists: Callable[[ManifestEntry], bool]) -> bool:
    """Whether the data entries can be taken one at a time, with no parity rebuild
    and no file set aside: ``exists`` finds every one, before anything is read, and
    every parity entry is lost or verifies.  The parity entries are read and
    checked in parts, each dropped once checked.  A stat that fails is a no, for
    ``recover`` to meet the error again and report it."""
    try:
        if not all(exists(e) for e in manifest.fragments if e.kind == "data"):
            return False
    except (StorageError, OSError):
        return False

    def usable(entry: ManifestEntry) -> bool:
        got = _checked(entry, get)
        return _lost(got) or not isinstance(got, Exception)

    parity = [e for e in manifest.fragments if e.kind == "parity"]
    size = manifest.payload_length // max(manifest.k, 1)
    return all(gf256._map_in_parts(usable, parity, len(parity) * size))


def fetch(manifest: Manifest, sites: list[LocalDirectoryBackend],
          write: Callable[[Recovered], object] | None = None) -> Recovered:
    """``recover`` from the sites the manifest places its entries on, site i being
    ``sites[i]``; with ``write``, hand what it recovers to ``write`` too.

    When ``streamable`` holds, ``write`` gets no data bytes: the Recovered it is
    handed maps each data entry to a function that gets the object, checks its
    digest and writes it into the open file it is handed, so ``write_files``
    holds one object per part.  Should that pass fail, a digest mismatch
    included, ``write`` is left to remove what it wrote, and the entries are
    fetched again through ``recover``, which sets aside, rebuilds and reports
    as it always does."""
    for entry in manifest.fragments:
        if entry.site not in range(len(sites)):  # a negative index would pick a site from the end
            raise ParameterError(f"manifest references unknown site {entry.site}")

    def get(entry: ManifestEntry) -> bytes:
        return sites[entry.site].get(entry.name)

    def writer(entry: ManifestEntry) -> Callable[[BinaryIO], object]:
        def write_one(fh: BinaryIO) -> None:
            got = _checked(entry, get)
            if isinstance(got, Exception):
                raise got
            fh.write(got)

        return write_one

    if write is not None and streamable(manifest, get,
                                        lambda entry: sites[entry.site].exists(entry.name)):
        data = [e for e in manifest.fragments if e.kind == "data"]
        streamed = Recovered({e: writer(e) for e in data}, {}, [])
        try:
            write(streamed)
            return streamed
        except (FragmentationError, OSError):
            pass  # fetched again below, whole
    recovered = recover(manifest, get)
    if write is not None:
        write(recovered)
    return recovered
