"""Dispersal of fragments over independent storage sites.

Fragment j goes to site j mod c.  That single rule guarantees the two
separation properties the scheme's security rests on: the c-1 neighbor
fragments that feed a fragment's encoding never share its site, and the c
shares of any one permutation array land on c distinct sites.  Assignments
are validated before anything is written, and arbitrary (user-supplied)
assignments can be checked for the exact violating pairs.

Dispersal moves bytes, not fragments: ``store`` writes the files that
``split`` serialized, verbatim, and ``fetch`` returns them (lost data files
rebuilt from parity) after checking each against the SHA-256 digest that
``build_manifest`` recorded at split time.  The split, dispersal and fetched
manifests therefore carry the same digest for each fragment.

A local-directory backend ships by default; anything with put/get/delete/
list_names can stand in for a real object store.  The manifest stays on the
client: placing it at any provider would hand that provider the layout.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path

from .erasure import ParityParams, rs_decode
from .errors import IntegrityError, ParameterError, StorageError, ThresholdError
from . import wire


class LocalDirectoryBackend:
    """Object store on a local directory; object names may contain slashes."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _path(self, name: str) -> Path:
        path = (self.root / name).resolve()
        if not path.is_relative_to(self.root.resolve()):
            raise StorageError(f"object name escapes the site root: {name!r}")
        return path

    def put(self, name: str, data: bytes) -> None:
        path = self._path(name)
        if path.exists():
            raise StorageError(f"object already exists: {name!r}")
        # written under a temporary name and moved into place, so a failed
        # write leaves neither a partial object nor the temporary file
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise StorageError(f"cannot write {name!r}: {exc}") from exc

    def get(self, name: str) -> bytes:
        path = self._path(name)
        if not path.exists():
            raise StorageError(f"object not found: {name!r}")
        return path.read_bytes()

    def delete(self, name: str) -> None:
        path = self._path(name)
        if path.exists():
            path.unlink()

    def list_names(self) -> list[str]:
        return sorted(
            str(p.relative_to(self.root)) for p in self.root.rglob("*") if p.is_file()
        )


@dataclass(frozen=True)
class StorageSite:
    index: int
    backend: LocalDirectoryBackend


@dataclass(frozen=True)
class SiteAssignment:
    """Fragment index -> site index."""

    sites: tuple[int, ...]

    def __getitem__(self, j: int) -> int:
        return self.sites[j]

    def __len__(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class Violation:
    kind: str  # "neighbor" or "permutation-group"
    fragments: tuple[int, ...]
    site: int


def assign_sites(k: int, c: int) -> SiteAssignment:
    """The j mod c rule, checked against all separation invariants."""
    if c < 2 or k < c or k % c != 0:
        raise ParameterError(f"k must be a positive multiple of c >= 2, got k={k}, c={c}")
    assignment = SiteAssignment(tuple(j % c for j in range(k)))
    violations = validate_assignment(assignment, k, c)
    if violations:
        raise RuntimeError(f"internal error: rule produced violations {violations}")
    return assignment


def validate_assignment(assignment: SiteAssignment, k: int, c: int) -> list[Violation]:
    """Check neighbor separation and permutation-share separation.

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


@dataclass
class Manifest:
    scheme: str
    k: int
    c: int
    block_size: int
    n: int
    payload_length: int
    fragments: list[ManifestEntry]
    created: str
    run_id: str
    cipher: str | None = None
    digest: str | None = None

    def to_dict(self) -> dict:
        doc = {
            "scheme": self.scheme,
            "k": self.k,
            "c": self.c,
            "block_size": self.block_size,
            "n": self.n,
            "payload_length": self.payload_length,
            "created": self.created,
            "run_id": self.run_id,
            "fragments": [
                {
                    "index": e.index,
                    "site": e.site,
                    "name": e.name,
                    "sha256": e.sha256,
                    "kind": e.kind,
                }
                for e in self.fragments
            ],
        }
        if self.cipher:
            doc["cipher"] = self.cipher
        if self.digest:
            doc["digest"] = self.digest
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Manifest":
        return cls(
            scheme=doc["scheme"],
            k=doc["k"],
            c=doc["c"],
            block_size=doc["block_size"],
            n=doc["n"],
            payload_length=doc["payload_length"],
            fragments=[
                ManifestEntry(
                    index=e["index"],
                    site=e["site"],
                    name=e["name"],
                    sha256=e["sha256"],
                    kind=e.get("kind", "data"),
                )
                for e in doc["fragments"]
            ],
            created=doc["created"],
            run_id=doc["run_id"],
            cipher=doc.get("cipher"),
            digest=doc.get("digest"),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        return cls.from_dict(json.loads(Path(path).read_text()))


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
    entries = []
    for index, blob in enumerate(blobs):
        magic = blob[:4]
        kind = "parity" if magic == wire.MAGIC_PARITY else "data"
        stem = f"p{index - k}" if kind == "parity" else f"f{index}"
        entries.append(
            ManifestEntry(index=index, site=None, name=f"{stem}{wire.EXTENSIONS[magic]}",
                          sha256=_sha256(blob), kind=kind)
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
    sites: list[StorageSite],
    run_id: str | None = None,
) -> Manifest:
    """Write each verified file to its site and return the dispersal manifest.

    ``blobs`` maps every entry of the split manifest to the bytes its digest
    was checked against; each is written verbatim as ``{run}/{entry.name}``.
    Data fragment j goes to site j mod c and every parity file to one
    dedicated extra site appended after the c primary sites.  The returned
    manifest keeps the split manifest's digests and adds site and run id.
    On any backend failure the objects already written are removed and no
    manifest is produced.
    """
    expected = site_count(manifest)
    if len(sites) != expected:
        raise ParameterError(f"expected {expected} sites, got {len(sites)}")
    if len({s.index for s in sites}) != len(sites):
        raise ParameterError("site indices must be distinct")
    assignment = assign_sites(manifest.k, manifest.c)
    run = run_id or uuid.uuid4().hex[:12]

    plan: list[tuple[StorageSite, ManifestEntry, bytes]] = []
    for entry in manifest.fragments:
        site = sites[-1] if entry.kind == "parity" else sites[assignment[entry.index]]
        placed = replace(entry, site=site.index, name=f"{run}/{entry.name}")
        plan.append((site, placed, blobs[entry]))

    written: list[tuple[StorageSite, str]] = []
    for site, placed, blob in plan:
        try:
            site.backend.put(placed.name, blob)
        except StorageError as exc:
            for done_site, done_name in written:
                done_site.backend.delete(done_name)
            raise StorageError(
                f"store failed at site {site.index}: {exc}", site=site.index
            ) from exc
        written.append((site, placed.name))
    entries = [placed for _, placed, _ in plan]

    return replace(manifest, fragments=entries, created=_now(), run_id=run)


def fetch(manifest: Manifest, sites: list[StorageSite]) -> dict[ManifestEntry, bytes]:
    """Read back and digest-verify every manifest entry, in manifest order.

    Lost data fragments are rebuilt from parity rows when enough of the n
    total rows survive, and checked against their recorded digests; the
    result then holds every data entry.  Otherwise the threshold error lists
    what is gone.  Parity entries that survive are included as well.
    """
    by_index = {s.index: s for s in sites}
    blobs: dict[ManifestEntry, bytes] = {}
    missing: list[ManifestEntry] = []
    for entry in manifest.fragments:
        site = by_index.get(entry.site)
        if site is None:
            raise ParameterError(f"manifest references unknown site {entry.site}")
        try:
            blob = site.backend.get(entry.name)
        except StorageError:
            if entry.kind == "data":
                missing.append(entry)
            continue
        if _sha256(blob) != entry.sha256:
            raise IntegrityError(
                f"digest mismatch for {entry.name!r} at site {entry.site}"
            )
        blobs[entry] = blob

    if missing:
        lost = [e.index for e in missing]
        if len(blobs) < manifest.k:
            raise ThresholdError(
                f"k-of-k threshold not met: missing fragments {lost}", missing=lost
            )
        # parity rows combine the primary files; the parity files wrap those rows
        rows = [
            (e.index, wire.load_parity_fragment(b).data if e.kind == "parity" else b)
            for e, b in blobs.items()
        ]
        recovered = rs_decode(rows, ParityParams(k=manifest.k, n=manifest.n))
        for entry in missing:
            blob = recovered[entry.index]
            if _sha256(blob) != entry.sha256:
                raise IntegrityError(f"digest mismatch for rebuilt fragment {entry.index}")
            blobs[entry] = blob
    return {e: blobs[e] for e in manifest.fragments if e in blobs}
