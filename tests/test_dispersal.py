import os
import subprocess
import sys
from pathlib import Path

import pytest

import kfrag
from kfrag import wire
from kfrag.codec import CodecParams, decode_data, encode_data
from kfrag.dispersal import (
    LocalDirectoryBackend,
    Manifest,
    SiteAssignment,
    StorageSite,
    Violation,
    assign_sites,
    build_manifest,
    fetch,
    store,
    validate_assignment,
)
from kfrag.erasure import ParityParams, parity_fragments
from kfrag.errors import IntegrityError, ParameterError, StorageError, ThresholdError


def _sites(tmp_path, count, offset=0):
    out = []
    for i in range(count):
        root = tmp_path / f"site{i + offset}"
        root.mkdir(parents=True, exist_ok=True)
        out.append(StorageSite(index=i, backend=LocalDirectoryBackend(root)))
    return out


def _objects(root):
    """Names of the objects stored under a site root, sorted."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _split(fragset, n=None):
    """The split manifest and its files, keyed by entry, as ``kfrag split`` makes them."""
    p = fragset.params
    n = n or p.k
    blobs = [wire.dump_fragment(f) for f in fragset]
    if n > p.k:
        parity = parity_fragments(blobs, ParityParams(p.k, n))
        blobs += [wire.dump_parity_fragment(pf) for pf in parity]
    manifest = build_manifest("proposed", p.k, p.c, p.block_size, n,
                              fragset.payload_length, blobs)
    return manifest, dict(zip(manifest.fragments, blobs))


def _decode(fetched):
    return decode_data([wire.load_fragment(b) for e, b in fetched.items() if e.kind == "data"])


# ---------------------------------------------------------------------------
# assignment rules
# ---------------------------------------------------------------------------


def test_assign_sites_examples():
    assert assign_sites(4, 2).sites == (0, 1, 0, 1)
    assert assign_sites(2, 2).sites == (0, 1)  # k == c: identity
    assert assign_sites(6, 3).sites == (0, 1, 2, 0, 1, 2)


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
    a = SiteAssignment((0, 0, 0, 0))
    violations = validate_assignment(a, 4, 2)
    neighbor_pairs = {v.fragments for v in violations if v.kind == "neighbor"}
    assert neighbor_pairs == {(0, 1), (1, 2), (2, 3), (0, 3)}
    group_violations = [v for v in violations if v.kind == "permutation-group"]
    assert {v.fragments for v in group_violations} == {(0, 1), (2, 3)}


def test_validate_assignment_exact_violating_pairs():
    # neighbors wrap around: f1/f2 collide on site 1 and f3/f0 on site 0
    a = SiteAssignment((0, 1, 1, 0))
    violations = validate_assignment(a, 4, 2)
    assert set(violations) == {
        Violation(kind="neighbor", fragments=(1, 2), site=1),
        Violation(kind="neighbor", fragments=(0, 3), site=0),
    }


def test_validate_assignment_wrong_length():
    with pytest.raises(ParameterError):
        validate_assignment(SiteAssignment((0, 1)), 4, 2)


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
        assert len(_objects(site.backend.root)) == 2, f"site {i} fragment count"

    fetched = fetch(manifest, sites).blobs
    assert [e for e in fetched if e.kind == "parity"] == []
    assert list(fetched.values()) == list(blobs.values())
    assert _decode(fetched) == data


def test_store_counts_per_site(tmp_path, rng):
    fragset = encode_data(rng.randbytes(600), CodecParams(6, 3, 16), rng)
    sites = _sites(tmp_path, 3)
    store(*_split(fragset), sites)
    for site in sites:
        assert len(_objects(site.backend.root)) == 2  # k/c each


def test_store_with_parity_dedicated_site(tmp_path, rng):
    fragset = encode_data(rng.randbytes(2000), CodecParams(4, 2, 16), rng)
    sites = _sites(tmp_path, 3)
    manifest = store(*_split(fragset, n=6), sites)
    assert manifest.n == 6
    parity_entries = [e for e in manifest.fragments if e.kind == "parity"]
    assert {e.site for e in parity_entries} == {2}
    fetched = fetch(manifest, sites).blobs
    assert len([e for e in fetched if e.kind == "parity"]) == 2


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
        StorageSite(index=0, backend=LocalDirectoryBackend(good)),
        StorageSite(index=1, backend=_ReadOnlyBackend(bad)),
    ]
    with pytest.raises(StorageError) as err:
        store(*_split(fragset), sites, run_id="failrun")
    assert err.value.site == 1
    assert _objects(sites[0].backend.root) == []  # partial writes removed


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
    assert backend.get("run/f0.kfrg") == bytes(5000)
    assert _objects(tmp_path) == ["run/f0.kfrg"]


def test_fetch_missing_object_threshold(tmp_path, rng):
    data = rng.randbytes(3000)
    fragset = encode_data(data, CodecParams(4, 2, 16), rng)
    sites = _sites(tmp_path, 2)
    manifest = store(*_split(fragset), sites, run_id="gone")
    victim = manifest.fragments[2]
    sites[victim.site].backend.delete(victim.name)
    with pytest.raises(ThresholdError) as err:
        fetch(manifest, sites)
    assert err.value.missing == (2,)


def test_fetch_missing_object_recovered_by_parity(tmp_path, rng):
    data = rng.randbytes(3000)
    fragset = encode_data(data, CodecParams(4, 2, 16), rng)
    sites = _sites(tmp_path, 3)
    split, blobs = _split(fragset, n=5)
    manifest = store(split, blobs, sites)
    victim = next(e for e in manifest.fragments if e.index == 1)
    sites[victim.site].backend.delete(victim.name)
    fetched = fetch(manifest, sites).blobs
    assert list(fetched.values()) == list(blobs.values())  # rebuilt bytes included
    assert _decode(fetched) == data


def test_fetch_tampered_object_integrity(tmp_path, rng):
    data = rng.randbytes(3000)
    fragset = encode_data(data, CodecParams(4, 2, 16), rng)
    sites = _sites(tmp_path, 2)
    manifest = store(*_split(fragset), sites)
    victim = manifest.fragments[0]
    root = sites[victim.site].backend.root
    path = root / victim.name
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x80
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        fetch(manifest, sites)


def test_manifest_json_round_trip(tmp_path, rng):
    fragset = encode_data(rng.randbytes(256), CodecParams(2, 2, 8), rng)
    sites = _sites(tmp_path, 2)
    manifest = store(*_split(fragset), sites)
    path = tmp_path / "manifest.json"
    manifest.save(path)
    again = Manifest.load(path)
    assert again == manifest


def test_backend_name_escape_rejected(tmp_path):
    backend = LocalDirectoryBackend(tmp_path / "root")
    (tmp_path / "root").mkdir()
    with pytest.raises(StorageError):
        backend.put("../outside.bin", b"x")
