"""Dispersal of fragments over independent storage sites.

Fragment j goes to site j mod c.  That single rule guarantees the two
separation properties the scheme's security rests on: the c-1 neighbor
fragments that feed a fragment's encoding never share its site, and the c
shares of any one permutation array land on c distinct sites.  Assignments
are validated before anything is written, and arbitrary (user-supplied)
assignments can be checked for the exact violating pairs.

Dispersal moves bytes, not fragments: ``store`` writes the files that
``split`` serialized, verbatim, and ``read_set`` reads them back, from the
sites (``fetch``) or a local directory (``kfrag join --manifest``),
checking each against the SHA-256 digest recorded at split time; so the
split, dispersal and fetched manifests carry the same digests.  One pass
serves ``fetch`` and ``join``, and reads no file whole: each file is read
and hashed a piece at a time (``SparseFile``), and each lost data file is
rebuilt from k files of its set as they are read (``Rebuilt``).  A digest
mismatch, known once the pass has read its files, sets the file aside as if
lost, and the pass runs again, nothing committed before; the damage is an
integrity error only when fewer than k of the n files verify.  Both
commands name each file set aside or rebuilt on stderr.  ``disperse``
refuses any lost or damaged file; ``kfrag disperse`` puts each file as it
reads it, a piece at a time (``Streamed``): when that pass fails, with what
it put removed, ``check_files`` names the first lost or damaged file.
Every file kfrag writes goes through ``write_files``, as one buffer or
appended to by a fill: all of a set or none, a command's manifest last.
Every file it reads, but for the JSON manifests, comes in through
``read_file``: into one numpy buffer, filled in place and returned
read-only, or, sparse, as a SparseFile, which a pipe fills whole as it is
opened.

A site is its backend, and its index is its position in the list of sites.
A local-directory backend ships by default.  Another object with
put/get/delete can stand in for a real object store as long as
``get`` opens an object as a SparseFile, ``put`` may run on several threads
at once and takes an object's bytes or a fill that appends them, as for
``write_files``, and, for ``store``, as long as it has a ``root`` directory:
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


def write_files(files: dict[Path, bytes | None], dirs: Iterable[Path] = (),
                fill: Callable[[list[Callable[[bytes], object]]], object] | None = None,
                ) -> list[Path]:
    """Write every file, creating missing directories, or leave all as they were.

    A file's content is one buffer, or None: ``fill`` writes the files whose
    content is None, handed one function per file, in order, that appends a
    buffer to it.  The missing directories are made first: any of ``dirs``
    and their parents, then those of each file.  Each file then goes to a
    temporary name in its own directory: first ``fill``'s, on the calling
    thread, then the buffers, in parts as by ``gf256._map_in_parts``, and only
    once all are written is each renamed into place, in order, so the last
    one commits the set.  Returns the directories it created, innermost
    first.  On failure, an error of ``fill`` included, it removes the
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
        with _naming(path), open(temps[path], "wb") as fh:
            fh.write(files[path])

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
        gf256._map_in_parts(write, rest, sum(len(files[path]) for path in rest))
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
    gives its bytes with no zero tail.  With ``sparse``, a regular file is not
    read here: it comes back as a SparseFile, open, to be read piece by piece,
    and hashed as it is unless not ``hashed``.  A pipe or other non-regular
    file is read to its end here, into the private anonymous mapping of a
    SparseFile that comes back filled and hashed, with no descriptor left to
    read, or, not ``sparse``, as that SparseFile's bytes."""
    with open(path, "rb", buffering=0) as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            area, size = _read_stream(fh.fileno())
            f = SparseFile(None, size, hashed and sparse, area)
            return f if sparse else f.buf
        if sparse:
            return SparseFile(os.dup(fh.fileno()), info.st_size, hashed)
        buf = np.empty(info.st_size, dtype=np.uint8)
        buf = buf[: _read_parts(fh.fileno(), buf, 0, len(buf))]
    buf.setflags(write=False)
    return memoryview(buf)


def _read_stream(fd: int) -> tuple[mmap.mmap, int]:
    """Read the file ``fd`` to its end into a private anonymous mapping, doubled
    whenever it is full; returns the mapping and the bytes read."""
    area, size = _anonymous(_PIECE), 0
    while True:
        if size == len(area):
            area = _anonymous(2 * size, area)
        with memoryview(area) as view:
            n = os.readv(fd, [view[size:]])
        if not n:
            return area, size
        size += n


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


def _anonymous(size: int, area: mmap.mmap | None = None) -> mmap.mmap:
    """A private anonymous mapping of ``size`` bytes, or ``area`` resized to it
    (``mremap``, which moves its pages without copying them): MADV_DONTNEED frees
    its pages, where a shared mapping's would stay.  A MemoryError when there is
    no room."""
    try:
        if area is None:
            return mmap.mmap(-1, max(size, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        area.resize(size)
        return area
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
    mapping of its size, and hashed as it is read; or, given ``area``, a mapping
    that already holds all ``size`` bytes of a file, that file, read and hashed.

    ``buf`` is the whole file, read-only: the bytes not read yet, and those
    released, read as zeros and hold no memory.  ``fill(end)`` reads on from
    where the last fill ended up to ``end``, in parts as by
    ``gf256._in_parts``, and adds those bytes to ``sha``, if ``hashed``;
    ``release(end)`` hands the pages that lie wholly before
    ``end`` back to the system (``MADV_DONTNEED``).  A file that ends before a
    fill does is an IntegrityError.  ``close`` closes the descriptor; the
    mapping lives as long as ``buf`` or a view of it does."""

    def __init__(self, fd: int | None, size: int, hashed: bool = True,
                 area: mmap.mmap | None = None):
        self._fd = fd
        try:
            self._map = _anonymous(size) if area is None else area
        except BaseException:
            self.close()
            raise
        self._bytes = np.frombuffer(self._map, dtype=np.uint8, count=size)
        view = self._bytes.view()
        view.setflags(write=False)
        self.buf = memoryview(view)
        self.sha = hashlib.sha256() if hashed else None
        self._read, self._released = (0 if area is None else size), 0
        if self.sha is not None:
            self.sha.update(self._bytes[: self._read])

    def __len__(self) -> int:
        return len(self.buf)

    def fill(self, end: int) -> None:
        start = self._read
        if end <= start:
            return
        if end - start >= _HUGE_FILL:
            low = start - start % mmap.PAGESIZE
            self._map.madvise(mmap.MADV_HUGEPAGE, low, end - low)
        self._read = end = self._take(start, end)
        if self.sha is not None:
            self.sha.update(self._bytes[start:end])

    def _take(self, start: int, end: int) -> int:
        """Read the bytes ``start`` to ``end`` into the mapping; returns where they end."""
        if (got := _read_parts(self._fd, self._bytes, start, end)) < end:
            raise IntegrityError(f"file ended at byte {got} of {len(self.buf)}")
        return end

    def release(self, end: int) -> None:
        end -= end % mmap.PAGESIZE
        if end > self._released:
            self._map.madvise(mmap.MADV_DONTNEED, self._released, end - self._released)
            self._released = end

    def copy(self, write: Callable[[bytes], object] | None) -> None:
        """Hand the whole file to ``write``, or with None only hash it: the bytes read so
        far, then the rest, read on and hashed a piece at a time through one buffer,
        not into the mapping."""
        write = write or (lambda piece: None)
        write(self.buf[: self._read])
        piece = np.empty(min(_PIECE, len(self.buf)), dtype=np.uint8)
        while self._read < len(self.buf):
            n = os.preadv(self._fd, [piece[: len(self.buf) - self._read]], self._read)
            if not n:
                raise IntegrityError(f"file ended at byte {self._read} of {len(self.buf)}")
            write(piece[:n])
            self.sha.update(piece[:n])
            self._read += n

    def digest(self) -> str:
        """The file's SHA-256 digest, the rest hashed as by ``copy``."""
        self.copy(None)
        return self.sha.hexdigest()

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)


# the bytes SparseFile.copy reads, hashes and writes at a time, and the least
# a Rebuilt file makes at a time
_PIECE = 1 << 20


class Rebuilt(SparseFile):
    """Data file ``index`` of a parity set, made as it is filled, at least _PIECE bytes
    or up to its end at a time, from ``decode(start, end)``, the set's k data rows."""

    def __init__(self, index: int, size: int, decode: Callable, hashed: bool):
        super().__init__(None, size, hashed)
        self.index, self._decode = index, decode

    def _take(self, start: int, end: int) -> int:
        end = min(len(self.buf), max(end, start + _PIECE))
        self._bytes[start:end] = np.frombuffer(self._decode(start, end)[self.index], np.uint8)
        return end


def rebuild_files(data: dict[int, SparseFile], parity: list[SparseFile],
                  k: int | None = None) -> dict[int, Rebuilt]:
    """A Rebuilt for each data file of a parity set that ``data``, its data files by
    index, lacks, made from those then the ``parity`` files with one ``rs_decode`` call
    per piece for them all, and hashed if the parity files are.  The first parity file
    gives n, k unless given, and, in the length of its data, that of a data file."""
    for f in parity:
        f.fill(min(len(f), wire.HEAD))
    rows = [wire.load_parity_fragment(f.buf) for f in parity]
    params, size = ParityParams(k=k or rows[0].k, n=rows[0].n), len(rows[0].data)
    sources = ([(i, f, 0) for i, f in data.items()]
               + [(row.index, f, len(f) - size) for row, f in zip(rows, parity)])[: params.k]
    last: list = [None, None]  # the piece decoded last, and its rows

    def decode(start: int, end: int) -> list[bytes]:
        if last[0] != (start, end):
            for _, f, at in sources:
                f.fill(at + end)
            last[:] = (start, end), rs_decode(
                [(i, f.buf[at + start : at + end]) for i, f, at in sources], params)
        return last[1]

    return {i: Rebuilt(i, size, decode, parity[0].sha is not None)
            for i in range(params.k) if i not in data}


class Streamed:
    """An object to ``put`` as it is read: a fill, called with the list of the one
    append of the file it goes to (or None), it copies the SparseFile ``file``
    through that append, then raises an IntegrityError that names ``name`` unless
    the file's digest is ``sha256``, so a put of a damaged file commits nothing.
    Its length is the file's."""

    def __init__(self, file: SparseFile, sha256: str, name: str):
        self.file, self.sha256, self.name = file, sha256, name

    def __len__(self) -> int:
        return len(self.file)

    def __call__(self, appends: list[Callable[[bytes], object]] | None) -> None:
        self.file.copy(appends and appends[0])
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

    def put(self, name: str, data: bytes | Callable) -> None:
        """Store ``data``, the object's bytes or a fill, as for ``write_files``, of its
        one file; its error leaves no object."""
        path = self._path(name)
        if path.exists():
            raise StorageError(f"object already exists: {name!r}")
        try:
            content, fill = (None, data) if callable(data) else (data, None)
            self._made += write_files({path: content}, (), fill)
        except OSError as exc:
            raise StorageError(f"cannot write {name!r}: {exc}") from exc

    def get(self, name: str) -> SparseFile:
        """The object, as ``read_file(path, sparse=True)`` opens it."""
        return read_file(self._path(name), sparse=True)

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


def check_files(manifest: Manifest, base: Path) -> None:
    """Raise the error of the first file in ``base``, in manifest order, that is lost
    or whose digest is not its entry's, each read and hashed a piece at a time
    (``Streamed``), not whole."""
    for entry in manifest.fragments:
        with contextlib.closing(read_file(base / entry.name, sparse=True)) as f:
            Streamed(f, entry.sha256, entry.name)(None)


@dataclass(frozen=True)
class Recovered:
    """A pass of ``read_set``: each entry's file, opened or, lost or set aside, rebuilt,
    in manifest order; the entries set aside, with their error; the ones rebuilt."""

    files: dict[ManifestEntry, SparseFile]
    damaged: dict[ManifestEntry, IntegrityError]
    rebuilt: list[ManifestEntry]

    def check(self) -> None:
        """Raise an IntegrityError unless each file has its entry's digest."""
        for entry, f in self.files.items():
            if f.digest() != entry.sha256:
                rebuilt = "rebuilt " if entry in self.rebuilt else ""
                raise IntegrityError(f"digest mismatch for {rebuilt}{entry.name!r}")

    def copy(self, appends: list[Callable[[bytes], object]]) -> None:
        """Append each data file to its one of ``appends``, then ``check``, in parts over
        the files: each copied whole (``SparseFile.copy``), or, with files rebuilt,
        _PIECE bytes at a time, the rebuilt ones made on this thread."""
        files = list(self.files.values())
        data = [f for e, f in self.files.items() if e.kind == "data"]
        nbytes, outputs = sum(map(len, files)), dict(zip(data, appends))
        if not self.rebuilt:
            gf256._map_in_parts(lambda f: f.copy(outputs.get(f)), files, nbytes)
        else:
            read = [f for e, f in self.files.items() if e not in self.rebuilt]
            for lo in range(0, max(map(len, files)), _PIECE):
                hi = lo + _PIECE
                gf256._map_in_parts(lambda f: f.fill(min(len(f), hi)), read, nbytes)
                for f in data:
                    f.fill(min(len(f), hi))  # a rebuilt one is made here
                gf256._map_in_parts(lambda f: outputs[f](f.buf[lo:hi]), data, nbytes)
                for f in files:
                    f.release(hi)
        self.check()


def read_set(manifest: Manifest, get: Callable[[ManifestEntry], SparseFile],
             run: Callable[[Recovered], object]) -> tuple[Recovered, object]:
    """Open every entry with ``get``, which raises StorageError or FileNotFoundError for
    a lost one, rebuild each data entry lost or set aside from the first k files opened,
    and hand the set to ``run``, which reads it a piece at a time and calls
    ``Recovered.check`` before it commits; returns the set and what ``run`` returned.
    Should ``run`` fail, the files whose digest fails, each hashed to its end, are set
    aside and ``run`` runs again, or with none its error is raised.  With fewer than k
    entries left, the first set aside is an IntegrityError, or a ThresholdError names
    the data lost."""
    damaged: dict[ManifestEntry, IntegrityError] = {}
    while True:
        with contextlib.ExitStack() as stack:
            read: dict[ManifestEntry, SparseFile] = {}
            for entry in manifest.fragments:
                if entry not in damaged:
                    with contextlib.suppress(StorageError, FileNotFoundError):  # lost
                        read[entry] = stack.enter_context(contextlib.closing(get(entry)))
            missing = [e for e in manifest.fragments if e.kind == "data" and e not in read]
            if missing and len(read) < manifest.k:
                if damaged:
                    raise damaged[min(damaged, key=lambda e: e.index)]
                lost = [e.index for e in missing]
                raise ThresholdError(f"threshold not met: missing fragments {lost}", missing=lost)
            parity = [f for e, f in read.items() if e.kind == "parity"]
            try:
                made = rebuild_files({e.index: f for e, f in read.items() if e.kind == "data"},
                                     parity, manifest.k) if missing and parity else {}
                files = {e: read[e] if e in read else made[e.index] for e in manifest.fragments
                         if e in read or e.index in made}
                recovered = Recovered(files, dict(damaged), [e for e in missing if e in files])
                return recovered, run(recovered)
            except (FragmentationError, OSError):
                bad = [e for e, f in read.items() if f.digest() != e.sha256]
                if not bad:
                    raise
                for e in bad:
                    site = "" if e.site is None else f" at site {e.site}"
                    damaged[e] = IntegrityError(f"digest mismatch for {e.name!r}{site}")
        read = made = files = recovered = parity = None  # the pages of this pass go back


def fetch(manifest: Manifest, sites: list[LocalDirectoryBackend],
          write: Callable[[Recovered], object]) -> Recovered:
    """``read_set`` from the sites the manifest places its entries on, site i being
    ``sites[i]``, handing each pass to ``write``."""
    for entry in manifest.fragments:
        if entry.site not in range(len(sites)):  # a negative index would pick a site from the end
            raise ParameterError(f"manifest references unknown site {entry.site}")
    return read_set(manifest, lambda entry: sites[entry.site].get(entry.name), write)[0]
