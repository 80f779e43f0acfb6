import ast
import contextlib
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path, PurePosixPath
from types import SimpleNamespace

import pytest

import kfrag
from kfrag import dispersal, gf256, wire
from kfrag.baselines import SchemeId
from kfrag.codec import CodecParams, decode_data, encode_data
from kfrag.dispersal import (
    LocalDirectoryBackend,
    Manifest,
    Violation,
    assign_sites,
    build_manifest,
    fetch,
    read_file,
    store,
    validate_assignment,
    write_files,
)
from kfrag.erasure import ParityParams, parity_fragments
from kfrag.errors import IntegrityError, ParameterError, StorageError, ThresholdError


def _sites(tmp_path, count, offset=0):
    out = []
    for i in range(count):
        root = tmp_path / f"site{i + offset}"
        root.mkdir(parents=True, exist_ok=True)
        out.append(LocalDirectoryBackend(root))
    return out


def _objects(root):
    """Names of the objects stored under a site root, sorted."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _split(fragset, n=None):
    """The split manifest and its files, keyed by entry, as ``kfrag split`` makes them."""
    p = fragset[0].params
    n = n or p.k
    blobs = [wire.dump_fragment(f) for f in fragset]
    if n > p.k:
        parity = parity_fragments(blobs, ParityParams(p.k, n))
        blobs += [wire.dump_parity_fragment(pf) for pf in parity]
    manifest = build_manifest("proposed", p.k, p.c, p.block_size, n,
                              fragset[0].payload_length, blobs)
    return manifest, dict(zip(manifest.fragments, blobs))


def _fetch(manifest, sites):
    """``fetch`` the data files into a directory, as ``kfrag fetch`` writes them; returns
    the pass and each data entry's fetched bytes, in manifest order."""
    data = [e for e in manifest.fragments if e.kind == "data"]
    with tempfile.TemporaryDirectory() as out:
        paths = [Path(out, PurePosixPath(e.name).name) for e in data]
        recovered = fetch(manifest, sites,
                          lambda rec: write_files(dict.fromkeys(paths), fill=rec.copy))
        return recovered, {e: p.read_bytes() for e, p in zip(data, paths)}


def _decode(fetched):
    return decode_data([wire.load_fragment(b) for e, b in fetched.items() if e.kind == "data"])


@pytest.fixture
def started(monkeypatch):
    """The threads ``gf256`` starts, on two cores."""
    out = []

    class Counted(threading.Thread):
        def start(self):
            out.append(self)
            super().start()

    monkeypatch.setattr(gf256, "_CORES", 2)
    monkeypatch.setattr(gf256, "threading", SimpleNamespace(Thread=Counted))
    return out


# ---------------------------------------------------------------------------
# assignment rules
# ---------------------------------------------------------------------------


def test_assign_sites_examples():
    assert assign_sites(4, 2) == (0, 1, 0, 1)
    assert assign_sites(2, 2) == (0, 1)  # k == c: identity
    assert assign_sites(6, 3) == (0, 1, 2, 0, 1, 2)


def test_assign_sites_neighbor_rule_holds():
    a = assign_sites(6, 3)
    for j in (0,):
        neighbor_sites = {a[(j + t) % 6] for t in (1, 2)}
        assert a[j] not in neighbor_sites


def test_assign_sites_invalid_parameters():
    with pytest.raises(ParameterError):
        assign_sites(5, 2)
    with pytest.raises(ParameterError):
        assign_sites(4, 1)


def test_validate_assignment_all_good():
    for k in range(2, 65):
        for c in range(2, k + 1):
            if k % c == 0:
                assert validate_assignment(assign_sites(k, c), k, c) == []


def test_validate_assignment_everything_on_one_site():
    a = (0, 0, 0, 0)
    violations = validate_assignment(a, 4, 2)
    neighbor_pairs = {v.fragments for v in violations if v.kind == "neighbor"}
    assert neighbor_pairs == {(0, 1), (1, 2), (2, 3), (0, 3)}
    group_violations = [v for v in violations if v.kind == "permutation-group"]
    assert {v.fragments for v in group_violations} == {(0, 1), (2, 3)}


def test_validate_assignment_exact_violating_pairs():
    # neighbors wrap around: f1/f2 collide on site 1 and f3/f0 on site 0
    a = (0, 1, 1, 0)
    violations = validate_assignment(a, 4, 2)
    assert set(violations) == {
        Violation(kind="neighbor", fragments=(1, 2), site=1),
        Violation(kind="neighbor", fragments=(0, 3), site=0),
    }


def test_validate_assignment_wrong_length():
    with pytest.raises(ParameterError):
        validate_assignment((0, 1), 4, 2)


# ---------------------------------------------------------------------------
# store / fetch
# ---------------------------------------------------------------------------


def test_store_fetch_round_trip(tmp_path, rng):
    data = rng.randbytes(10_000)
    fragset = encode_data(data, CodecParams(4, 2, 34), rng)
    sites = _sites(tmp_path, 2)
    split, blobs = _split(fragset)
    manifest = store(split, blobs, sites, run_id="runA")

    assert manifest.k == 4 and manifest.c == 2
    assert [e.site for e in manifest.fragments] == [0, 1, 0, 1]
    assert [e.name for e in manifest.fragments] == [f"runA/f{j}.kfrg" for j in range(4)]
    for i, site in enumerate(sites):
        assert len(_objects(site.root)) == 2, f"site {i} fragment count"

    recovered, fetched = _fetch(manifest, sites)
    assert [e for e in recovered.files if e.kind == "parity"] == []
    assert list(fetched.values()) == list(blobs.values())
    assert _decode(fetched) == data


def test_store_counts_per_site(tmp_path, rng):
    fragset = encode_data(rng.randbytes(600), CodecParams(6, 3, 16), rng)
    sites = _sites(tmp_path, 3)
    store(*_split(fragset), sites)
    for site in sites:
        assert len(_objects(site.root)) == 2  # k/c each


def test_store_with_parity_dedicated_site(tmp_path, rng):
    fragset = encode_data(rng.randbytes(2000), CodecParams(4, 2, 16), rng)
    sites = _sites(tmp_path, 3)
    manifest = store(*_split(fragset, n=6), sites)
    assert manifest.n == 6
    parity_entries = [e for e in manifest.fragments if e.kind == "parity"]
    assert {e.site for e in parity_entries} == {2}
    recovered, _ = _fetch(manifest, sites)
    assert len([e for e in recovered.files if e.kind == "parity"]) == 2


def test_store_site_count_must_match(tmp_path, rng):
    fragset = encode_data(rng.randbytes(100), CodecParams(4, 2, 16), rng)
    with pytest.raises(ParameterError):
        store(*_split(fragset), _sites(tmp_path, 3))


def test_store_unwritable_site_cleans_up(tmp_path, rng):
    fragset = encode_data(rng.randbytes(500), CodecParams(4, 2, 16), rng)
    good = tmp_path / "good"
    good.mkdir()
    bad = tmp_path / "missing-parent" / "nope"
    sites = [
        LocalDirectoryBackend(good),
        _ReadOnlyBackend(bad),
    ]
    with pytest.raises(StorageError) as err:
        store(*_split(fragset), sites, run_id="failrun")
    assert err.value.site == 1
    assert _objects(sites[0].root) == []  # partial writes removed
    assert [p.name for p in tmp_path.iterdir()] == ["good"]  # and the site directory made


def test_store_names_the_site_whose_directory_cannot_be_made(tmp_path, rng):
    fragset = encode_data(rng.randbytes(500), CodecParams(4, 2, 16), rng)
    (tmp_path / "file").write_bytes(b"")
    sites = [LocalDirectoryBackend(tmp_path / "out" / "s0"),
             LocalDirectoryBackend(tmp_path / "file" / "s1")]
    with pytest.raises(StorageError, match="store failed at site 1") as err:
        store(*_split(fragset), sites)
    assert err.value.site == 1
    assert [p.name for p in tmp_path.iterdir()] == ["file"]  # out/ and out/s0 removed


def test_store_removes_its_objects_and_run_directories_when_record_fails(tmp_path, rng):
    fragset = encode_data(rng.randbytes(500), CodecParams(4, 2, 16), rng)
    sites = _sites(tmp_path, 2)
    recorded = []

    def refuse(stored):
        recorded.append(stored)
        raise OSError(28, "No space left on device", "dispersal.json")

    with pytest.raises(OSError):
        store(*_split(fragset), sites, run_id="norecord", record=refuse)
    assert [e.name for e in recorded[0].fragments] == [f"norecord/f{j}.kfrg" for j in range(4)]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["site0", "site1"]


class _ReadOnlyBackend(LocalDirectoryBackend):
    def put(self, name, data):
        raise StorageError("backend is read-only", site=1)


def test_store_duplicate_object_name(tmp_path, rng):
    fragset = encode_data(rng.randbytes(100), CodecParams(2, 2, 4), rng)
    sites = _sites(tmp_path, 2)
    split, blobs = _split(fragset)
    store(split, blobs, sites, run_id="dup")
    with pytest.raises(StorageError):
        store(split, blobs, sites, run_id="dup")


def test_store_in_parts_removes_every_object_when_a_site_fails(tmp_path, rng, started):
    # 9 MiB of files: two parts, site 0's puts on this thread and site 1's on another
    data = rng.randbytes(9 << 20)
    sites = _sites(tmp_path, 2)
    split, blobs = _split(encode_data(data, CodecParams(4, 2, 250), rng))
    started.clear()  # the encode's
    manifest = store(split, blobs, sites, run_id="parts")
    assert len(started) == 1
    assert _decode(_fetch(manifest, sites)[1]) == data
    for entry in reversed(manifest.fragments):  # each run directory with its first object
        sites[entry.site].delete(entry.name)

    (sites[1].root / "blocked").write_bytes(b"")  # a file where site 1's run directory goes
    started.clear()
    with pytest.raises(StorageError, match="store failed at site 1") as err:
        store(split, blobs, sites, run_id="blocked")
    assert err.value.site == 1
    assert len(started) == 1
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "site0", "site1", "site1/blocked"]


def test_store_in_parts_makes_a_parent_two_sites_share_on_the_callers_thread(
        tmp_path, rng, started, monkeypatch):
    # out/ and both site directories missing: two puts in parts must not both make out/
    data = rng.randbytes(9 << 20)
    sites = [LocalDirectoryBackend(tmp_path / "out" / f"s{i}") for i in range(2)]
    split, blobs = _split(encode_data(data, CodecParams(4, 2, 250), rng))
    made = []
    mkdir = Path.mkdir

    def recorded(self, *args, **kwargs):
        mkdir(self, *args, **kwargs)
        made.append((str(self.relative_to(tmp_path)), threading.current_thread().name))

    monkeypatch.setattr(Path, "mkdir", recorded)
    started.clear()  # the encode's
    manifest = store(split, blobs, sites, run_id="shared")
    assert len(started) == 1
    caller = threading.current_thread().name
    assert sorted(d for d, thread in made if thread == caller) == [
        "out", "out/s0", "out/s0/shared", "out/s1"]
    assert [d for d, thread in made if thread != caller] == ["out/s1/shared"]
    assert _decode(_fetch(manifest, sites)[1]) == data
    for entry in reversed(manifest.fragments):
        sites[entry.site].delete(entry.name)
    for d in ("out/s1", "out/s0", "out"):
        (tmp_path / d).rmdir()

    def refuse(stored):
        raise OSError(28, "No space left on device", "dispersal.json")

    with pytest.raises(OSError):
        store(split, blobs, sites, run_id="refused", record=refuse)
    assert list(tmp_path.iterdir()) == []  # not even out/, whichever put ran first


_REFUSED_PUT = """
import resource, signal, sys
from kfrag.dispersal import LocalDirectoryBackend
from kfrag.errors import StorageError
backend = LocalDirectoryBackend(sys.argv[1])
# set after the imports: a limit in force while they run truncates .pyc files
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    backend.put("run/f0.kfrg", bytes(5000))
except StorageError:
    sys.exit(0)
sys.exit(1)
"""


def test_backend_put_cut_short_leaves_nothing(tmp_path):
    # a file-size limit makes the write fail after 1000 of 5000 bytes
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(kfrag.__file__).resolve().parent.parent)}
    child = subprocess.run([sys.executable, "-c", _REFUSED_PUT, str(tmp_path)],
                           env=env, capture_output=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
    backend = LocalDirectoryBackend(tmp_path)
    backend.put("run/f0.kfrg", bytes(5000))  # a retry is not refused as existing
    with contextlib.closing(backend.get("run/f0.kfrg")) as f:
        f.fill(len(f))
        assert bytes(f.buf) == bytes(5000)
    assert _objects(tmp_path) == ["run/f0.kfrg"]


def test_write_files_writes_all_or_none(tmp_path):
    old = tmp_path / "a" / "f0.kfrg"
    old.parent.mkdir()
    old.write_bytes(b"old")
    (tmp_path / "b").write_bytes(b"a file where a directory is wanted")
    with pytest.raises(OSError):
        write_files({old: b"new", tmp_path / "b" / "manifest.json": b"{}"})
    assert old.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "f0.kfrg"]
    write_files({old: b"new", tmp_path / "c" / "manifest.json": b"{}"})
    assert old.read_bytes() == b"new" and (tmp_path / "c" / "manifest.json").read_bytes() == b"{}"


def test_a_failed_write_files_removes_its_directories_and_names_its_target(tmp_path):
    (tmp_path / "b").write_bytes(b"a file where a directory is wanted")
    target = tmp_path / "b" / "manifest.json"
    with pytest.raises(NotADirectoryError) as err:
        write_files({tmp_path / "d" / "e" / "f0.kfrg": b"new", target: b"{}"})
    assert err.value.filename == str(target)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["b"]


_REFUSED_PARTS = """
import json, resource, signal, sys, threading
from pathlib import Path
from types import SimpleNamespace
from kfrag import gf256
from kfrag.dispersal import write_files
started = []

class Counted(threading.Thread):
    def start(self):
        started.append(self)
        super().start()

gf256._CORES = 2
gf256.threading = SimpleNamespace(Thread=Counted)
root = Path(sys.argv[1])
files = {root / "new" / "a" / "f0.kfrg": bytes(4 << 20), root / "new" / "b" / "f1.kfrg": bytes(6 << 20)}
# set after the imports: a limit in force while they run truncates .pyc files
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (5 << 20, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    write_files(files)
except OSError as exc:
    print(json.dumps({"filename": exc.filename, "threads": len(started)}))
    sys.exit(0)
sys.exit(1)
"""


def test_write_files_in_parts_writes_all_or_none(tmp_path):
    # two parts on two threads: f0 (4 MiB) fits under the file-size limit, f1
    # (6 MiB) is cut short at 5 MiB
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(kfrag.__file__).resolve().parent.parent)}
    child = subprocess.run([sys.executable, "-c", _REFUSED_PARTS, str(tmp_path)],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report == {"filename": str(tmp_path / "new" / "b" / "f1.kfrg"), "threads": 1}
    # no temporary, no file and none of the directories it made
    assert list(tmp_path.iterdir()) == []


def test_backend_removes_a_run_directory_when_its_objects_are_deleted_first_stored_first(
        tmp_path):
    backend = LocalDirectoryBackend(tmp_path / "site")
    backend.put("run/f0.kfrg", b"zero")  # makes site/ and run/
    backend.put("run/f2.kfrg", b"two")
    backend.put("other/f1.kfrg", b"one")
    backend.delete("run/f0.kfrg")
    assert (tmp_path / "site" / "run").is_dir()  # f2 is still in it
    backend.delete("run/f2.kfrg")
    assert _objects(tmp_path) == ["site/other/f1.kfrg"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["f1.kfrg", "other", "site"]
    backend.delete("other/f1.kfrg")
    assert list(tmp_path.iterdir()) == []


def test_write_files_writes_a_series_of_buffers_in_order(tmp_path):
    target = tmp_path / "new" / "out.bin"

    def pieces(fh):
        for piece in [b"ab", memoryview(b"cde"), bytearray(b""), b"f"]:
            fh.write(piece)

    assert write_files({target: pieces, tmp_path / "m.json": b"{}"}) == [tmp_path / "new"]
    assert target.read_bytes() == b"abcdef"


def test_write_files_leaves_nothing_when_a_series_of_buffers_raises(tmp_path):
    old = tmp_path / "old.bin"
    old.write_bytes(b"old")

    def pieces(fh):
        fh.write(b"first")
        fh.write(b"second")
        raise ValueError("the producer failed")

    with pytest.raises(ValueError, match="the producer failed"):
        write_files({tmp_path / "a" / "b" / "out.bin": pieces, old: b"new"})
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["old.bin"]
    assert old.read_bytes() == b"old"


def test_write_files_parts_writer_files_by_the_bytes_it_is_given(tmp_path, monkeypatch):
    # functions hold no bytes write_files can count: without nbytes two 8 MiB
    # writer files go on this thread, with it on two threads, as two buffers would
    monkeypatch.setattr(gf256, "_CORES", 2)
    written = {}

    def writer(name):
        def write(fh):
            written[name] = threading.current_thread()
            fh.write(bytes(8 << 20))

        return write

    for nbytes, beside in ((None, False), (16 << 20, True)):
        written.clear()
        write_files({tmp_path / name: writer(name) for name in ("a", "b")}, nbytes=nbytes)
        assert written["a"] is threading.main_thread()
        assert (written["b"] is not threading.main_thread()) is beside
        assert (tmp_path / "b").read_bytes() == bytes(8 << 20)


_REFUSED_STREAM = """
import json, resource, signal, sys
from pathlib import Path
from kfrag.dispersal import write_files
root = Path(sys.argv[1])
made = []

def pieces(fh):
    for i in range(8):  # 8 MiB in pieces of 1 MiB
        made.append(i)
        fh.write(bytes(1 << 20))

# set after the imports: a limit in force while they run truncates .pyc files
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (5 << 20, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    write_files({root / "new" / "a" / "out.bin": pieces})
except OSError as exc:
    print(json.dumps({"filename": exc.filename, "pieces": len(made)}))
    sys.exit(0)
sys.exit(1)
"""


def test_write_files_of_a_series_of_buffers_cut_short_writes_none(tmp_path):
    # the file-size limit refuses the sixth piece of 1 MiB
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(kfrag.__file__).resolve().parent.parent)}
    child = subprocess.run([sys.executable, "-c", _REFUSED_STREAM, str(tmp_path)],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {"filename": str(tmp_path / "new" / "a" / "out.bin"),
                                        "pieces": 6}
    # no temporary, no file and none of the directories it made
    assert list(tmp_path.iterdir()) == []


_DISK_WRITES = {"write_bytes", "write_text", "mkdir", "makedirs"}
_DISK_READS = {"read_bytes", "read_text"}


def _disk_calls(source: str, allowed: set, counts) -> list[int]:
    """Lines of ``source`` with a call for which ``counts(name, modes)`` holds, outside
    the functions named in ``allowed``; ``modes`` are the mode arguments it is given."""
    tree = ast.parse(source)
    inside = {line for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name in allowed
              for line in range(node.lineno, node.end_lineno + 1)}
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node.lineno in inside:
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        # the mode of open(path, mode) or of path.open(mode)
        modes = node.args[isinstance(node.func, ast.Name):][:1]
        modes += [k.value for k in node.keywords if k.arg == "mode"]
        if counts(name, [m.value if isinstance(m, ast.Constant) else None for m in modes]):
            found.add(node.lineno)
    return sorted(found)


def _disk_writes(source: str, allowed: str | None = None) -> list[int]:
    """Lines of ``source`` that write to disk outside the function named ``allowed``.

    An ``open`` counts unless every mode it is given is a literal without w, a, x or +.
    """
    return _disk_calls(source, {allowed}, lambda name, modes: name in _DISK_WRITES or (
        name == "open" and any(m is None or set(str(m)) & set("wax+") for m in modes)))


def _disk_reads(source: str, allowed: set) -> list[int]:
    """Lines of ``source`` that read a file outside the functions named in ``allowed``.

    An ``open`` counts unless it is given a mode and every mode is a literal with w, a
    or x and without +.
    """
    return _disk_calls(source, allowed, lambda name, modes: name in _DISK_READS or (
        name == "open" and not (modes and all(
            m is not None and set(str(m)) & set("wax") and "+" not in str(m) for m in modes))))


def test_every_file_is_written_by_write_files():
    package = Path(kfrag.__file__).parent
    found = {path.name: _disk_writes(path.read_text(), allowed="write_files")
             for path in package.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
    sample = ("Path(p).write_text('x')\nopen(p, 'wb')\nopen(p)\np.open('r+b')\n"
              "open(p, mode=m)\nos.makedirs(d)\np.open()\nd.mkdir()\n"
              "def write_files(f):\n    f.write_bytes(b'')\n")
    assert _disk_writes(sample, allowed="write_files") == [1, 2, 4, 5, 6, 8]
    assert _disk_writes(sample) == [1, 2, 4, 5, 6, 8, 10]


_THREAD_MODULES = {"threading", "_thread", "concurrent", "multiprocessing"}
_THREAD_NAMES = {"Thread", "start_new_thread", "ThreadPoolExecutor"}


def _thread_lines(source: str) -> list[int]:
    """Lines of ``source`` that import a module that starts threads, or name a way to."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        name = getattr(node, "attr", getattr(node, "id", None))
        if name in _THREAD_NAMES or any(m.split(".")[0] in _THREAD_MODULES for m in modules):
            found.add(node.lineno)
    return sorted(found)


def test_every_thread_is_started_by_gf256():
    package = Path(kfrag.__file__).parent
    found = {path.name: _thread_lines(path.read_text()) for path in package.glob("*.py")}
    assert [name for name, lines in found.items() if lines] == ["gf256.py"]
    sample = ("import threading\nfrom concurrent.futures import wait\nt.Thread(target=f)\n"
              "x = 1\nimport _thread as t\nimport os, threading\nThread()\n")
    assert _thread_lines(sample) == [1, 2, 3, 5, 6, 7]


def test_read_file_reads_a_large_file_in_parts(tmp_path, started):
    data = os.urandom((9 << 20) + 7)
    (tmp_path / "f").write_bytes(data)
    assert bytes(read_file(tmp_path / "f")) == data
    assert len(started) == 1


@pytest.mark.parametrize("extra", [1 << 20, 10 << 20])  # the second part is short; the first
def test_read_file_ends_at_the_first_short_part(tmp_path, monkeypatch, started, extra):
    data = os.urandom((9 << 20) + 7)
    (tmp_path / "f").write_bytes(data)
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(
        st_mode=fstat(fd).st_mode, st_size=len(data) + extra))
    assert bytes(read_file(tmp_path / "f")) == data
    assert len(started) == 1


def test_every_file_is_read_by_read_file():
    # the one exception: Manifest.load reads a manifest's JSON whole, for json.loads
    allowed = {"dispersal.py": {"read_file", "load"}}
    package = Path(kfrag.__file__).parent
    found = {path.name: _disk_reads(path.read_text(), allowed.get(path.name, set()))
             for path in package.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
    sample = ("Path(p).read_bytes()\nopen(p)\nopen(p, 'wb')\np.open('rb')\n"
              "open(p, mode=m)\np.read_text()\nopen(p, 'w+b')\np.write_bytes(b'')\n"
              "def read_file(f):\n    open(f, 'rb', buffering=0)\n")
    assert _disk_reads(sample, {"read_file"}) == [1, 2, 4, 5, 6, 7]
    assert _disk_reads(sample, set()) == [1, 2, 4, 5, 6, 7, 10]


def test_fetch_missing_object_threshold(tmp_path, rng):
    data = rng.randbytes(3000)
    fragset = encode_data(data, CodecParams(4, 2, 16), rng)
    sites = _sites(tmp_path, 2)
    manifest = store(*_split(fragset), sites, run_id="gone")
    victim = manifest.fragments[2]
    sites[victim.site].delete(victim.name)
    with pytest.raises(ThresholdError) as err:
        _fetch(manifest, sites)
    assert err.value.missing == (2,)


def test_fetch_missing_object_recovered_by_parity(tmp_path, rng):
    data = rng.randbytes(3000)
    fragset = encode_data(data, CodecParams(4, 2, 16), rng)
    sites = _sites(tmp_path, 3)
    split, blobs = _split(fragset, n=5)
    manifest = store(split, blobs, sites)
    victim = next(e for e in manifest.fragments if e.index == 1)
    sites[victim.site].delete(victim.name)
    _, fetched = _fetch(manifest, sites)
    # rebuilt bytes included
    assert list(fetched.values()) == [b for e, b in blobs.items() if e.kind == "data"]
    assert _decode(fetched) == data


def test_fetch_tampered_object_integrity(tmp_path, rng):
    data = rng.randbytes(3000)
    fragset = encode_data(data, CodecParams(4, 2, 16), rng)
    sites = _sites(tmp_path, 2)
    manifest = store(*_split(fragset), sites)
    victim = manifest.fragments[0]
    root = sites[victim.site].root
    path = root / victim.name
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x80
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        _fetch(manifest, sites)


def test_manifest_json_round_trip(tmp_path, rng):
    fragset = encode_data(rng.randbytes(256), CodecParams(2, 2, 8), rng)
    sites = _sites(tmp_path, 2)
    manifest = store(*_split(fragset), sites)
    path = tmp_path / "manifest.json"
    path.write_bytes(manifest.to_json())
    again = Manifest.load(path)
    assert again == manifest


def test_backend_name_escape_rejected(tmp_path):
    backend = LocalDirectoryBackend(tmp_path / "root")
    (tmp_path / "root").mkdir()
    with pytest.raises(StorageError):
        backend.put("../outside.bin", b"x")


@pytest.mark.parametrize("scheme", [s.value for s in SchemeId] + ["unknown"])
def test_only_a_scheme_whose_files_parity_may_follow_has_parity_entries(scheme):
    entries = [{"index": i, "site": None, "name": f"f{i}", "sha256": "0" * 64,
                "kind": "data" if i < 2 else "parity"} for i in range(3)]
    doc = {"scheme": scheme, "k": 2, "c": 2, "block_size": 16, "n": 3, "payload_length": 10,
           "created": "", "run_id": "", "fragments": entries}
    if scheme == SchemeId.PROPOSED:
        assert [e.kind for e in Manifest.from_dict(doc).fragments] == ["data", "data", "parity"]
    else:
        with pytest.raises(ValueError, match="fragment 2 cannot be of kind 'parity'"):
            Manifest.from_dict(doc)
