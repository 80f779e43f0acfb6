import contextlib
import functools
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import kfrag
from kfrag import cli, codec, dispersal, gf256, wire
from kfrag.cli import main
from kfrag.corpus import text_sample


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, *args, code=0, env=None):
    result = runner.invoke(main, list(args), env=env, catch_exceptions=False)
    assert result.exit_code == code, (args, result.exit_code, result.output)
    return result


def _seeded(monkeypatch, seed: int) -> None:
    """Have ``split`` and ``analyze`` draw from a Mersenne Twister seeded with ``seed``."""
    monkeypatch.setattr(cli, "random", SimpleNamespace(SystemRandom=lambda: random.Random(seed)))


def _split(runner, tmp_path, payload: bytes, *extra, name="in.bin"):
    src = tmp_path / name
    src.write_bytes(payload)
    out = tmp_path / "frags"
    _invoke(
        runner, "split", "--in", str(src), "--out", str(out),
        "--k", "4", "--c", "2", "--block-size", "34", *extra,
    )
    return src, out


def test_split_join_round_trip(runner, tmp_path):
    payload = os.urandom(70_001)
    src, out = _split(runner, tmp_path, payload)
    assert sorted(p.name for p in out.iterdir()) == [
        "f0.kfrg", "f1.kfrg", "f2.kfrg", "f3.kfrg", "manifest.json",
    ]
    joined = tmp_path / "back.bin"
    result = _invoke(runner, "join", "--manifest", str(out / "manifest.json"),
                     "--out", str(joined))
    assert joined.read_bytes() == payload
    assert result.output.strip().splitlines()[-1] == hashlib.sha256(payload).hexdigest()


@contextlib.contextmanager
def _piped(data: bytes):
    """A /dev/fd path to a pipe that a thread fills with ``data`` and then closes."""
    read_end, write_end = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), open(write_end, "wb", buffering=0) as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)  # a writer still blocked on a full pipe gets EPIPE
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_input_is_read_to_its_end_from_a_pipe(runner, tmp_path):
    # 200 kB fill a pipe's buffer several times over; fstat gives a pipe size 0
    payload = os.urandom(200_000)
    with _piped(payload) as path:
        assert dispersal.read_file(Path(path)) == payload
    with _piped(payload) as path:
        _invoke(runner, "split", "--in", path, "--out", str(tmp_path / "frags"))
    _invoke(runner, "join", "--manifest", str(tmp_path / "frags" / "manifest.json"),
            "--out", str(tmp_path / "back.bin"))
    assert (tmp_path / "back.bin").read_bytes() == payload
    (tmp_path / "empty.bin").write_bytes(b"")
    assert len(dispersal.read_file(tmp_path / "empty.bin")) == 0


def test_split_rejects_k_not_multiple_of_c(runner, tmp_path):
    src = tmp_path / "in.bin"
    src.write_bytes(b"data")
    result = _invoke(
        runner, "split", "--in", str(src), "--out", str(tmp_path / "o"),
        "--k", "5", "--c", "2", code=2,
    )
    assert "k must be a multiple of c" in result.output


@pytest.mark.parametrize("command", ["split", "analyze", "bench"])
def test_c_below_two_is_a_usage_error_without_traceback(runner, tmp_path, command):
    src = tmp_path / "in.bin"
    src.write_bytes(b"data" * 1000)
    args = {
        "split": ["split", "--in", str(src), "--out", str(tmp_path / "o"), "--c", "0"],
        "analyze": ["analyze", "--in", str(src), "--report", str(tmp_path / "r.json"),
                    "--c", "0"],
        "bench": ["bench", "--grid", "4,0,250", "--reps", "3", "--payload-mb", "1"],
    }[command]
    result = _invoke(runner, *args, code=2)
    assert "c must be at least 2" in result.output
    assert "Traceback" not in result.output


def test_bench_rejects_a_bad_grid_point_before_building_the_payload(runner, monkeypatch):
    from kfrag import bench

    def no_payload(cfg):
        raise AssertionError("payload built before the grid was checked")

    monkeypatch.setattr(bench, "_payload", no_payload)
    # each scheme's own limits: the baselines take any c but at most 255 fragments
    for scheme, grid, message in [
        ("proposed", "4,0,250", "c must be at least 2"),
        ("ida", "300,2,16", "need 1 <= k <= n <= 255"),
        ("sss", "256,2,16", "n must be at most 255"),
    ]:
        result = _invoke(runner, "bench", "--schemes", scheme, "--grid", grid, code=2)
        assert message in result.output
        assert "Traceback" not in result.output


def test_bench_refuses_an_out_path_its_json_results_would_overwrite(
    runner, tmp_path, monkeypatch
):
    from kfrag import bench

    def no_payload(cfg):
        raise AssertionError("payload built before --out was checked")

    monkeypatch.setattr(bench, "_payload", no_payload)
    result = _invoke(runner, "bench", "--grid", "2,2,34", "--payload-mb", "1",
                     "--out", str(tmp_path / "r.json"), code=2)
    assert "r.json" in result.stderr
    assert "Traceback" not in result.output
    assert list(tmp_path.iterdir()) == []


def _manifest_json(**change) -> str:
    """A k = 4, n = 6 split manifest, with fragment 1's entry changed as given."""
    entries = [{"index": i, "site": None, "name": f"f{i}.kfrg" if i < 4 else f"p{i - 4}.kpar",
                "sha256": "0" * 64, "kind": "data" if i < 4 else "parity"} for i in range(6)]
    entries[1].update(change)
    return json.dumps({"scheme": "proposed", "k": 4, "c": 2, "block_size": 34, "n": 6,
                       "payload_length": 5000, "created": "", "run_id": "", "fragments": entries})


@pytest.mark.parametrize("command", ["join", "disperse", "fetch"])
@pytest.mark.parametrize(
    "content",
    ["not json", '{"scheme": "proposed"}', '{"scheme": "proposed", "k": "4"}',
     _manifest_json(index=9), _manifest_json(index=-1), _manifest_json(index=0),
     _manifest_json(kind="extra"), _manifest_json(kind="parity"), _manifest_json(index=4)],
    ids=["not-json", "no-k", "k-not-int", "index-past-n", "index-negative", "index-repeated",
         "kind-unknown", "parity-below-k", "data-from-k"],
)
def test_malformed_manifest_is_a_usage_error_without_traceback(runner, tmp_path, command, content):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(content)
    sites = f"{tmp_path / 's0'},{tmp_path / 's1'}"
    args = {
        "join": ["join", "--manifest", str(manifest), "--out", str(tmp_path / "back")],
        "disperse": ["disperse", "--manifest", str(manifest), "--sites", sites],
        "fetch": ["fetch", "--manifest", str(manifest), "--sites", sites,
                  "--out", str(tmp_path / "o")],
    }[command]
    result = _invoke(runner, *args, code=2)
    assert f"malformed manifest {manifest}" in result.output
    assert "Traceback" not in result.output


def test_split_missing_input_is_io_error(runner, tmp_path):
    _invoke(
        runner, "split", "--in", str(tmp_path / "absent.bin"),
        "--out", str(tmp_path / "o"), code=3,
    )


def test_unknown_flag_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["split", "--nonsense", "x"])
    assert result.exit_code == 2


def test_join_threshold_exit_code(runner, tmp_path):
    payload = os.urandom(5000)
    _, out = _split(runner, tmp_path, payload)
    frags = sorted(str(p) for p in out.glob("f*.kfrg"))[:3]
    result = _invoke(runner, "join", "--frags", *frags,
                     "--out", str(tmp_path / "x.bin"), code=4)
    assert "missing fragments [3]" in result.output


def test_join_manifest_digest_mismatch_is_integrity_error(runner, tmp_path):
    payload = os.urandom(5000)
    _, out = _split(runner, tmp_path, payload)
    victim = out / "f1.kfrg"
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0x01
    victim.write_bytes(bytes(raw))
    _invoke(runner, "join", "--manifest", str(out / "manifest.json"),
            "--out", str(tmp_path / "x.bin"), code=5)


def test_join_with_parity_replacing_lost_primary(runner, tmp_path):
    payload = os.urandom(9000)
    _, out = _split(runner, tmp_path, payload, "--n", "6")
    assert sorted(p.name for p in out.iterdir()) == [
        "f0.kfrg", "f1.kfrg", "f2.kfrg", "f3.kfrg", "manifest.json", "p0.kpar", "p1.kpar",
    ]
    (out / "f0.kfrg").unlink()
    joined = tmp_path / "back.bin"
    _invoke(runner, "join", "--frags",
            *(str(out / name) for name in ("f1.kfrg", "f2.kfrg", "f3.kfrg", "p0.kpar")),
            "--out", str(joined))
    assert joined.read_bytes() == payload
    (out / "f3.kfrg").unlink()
    joined.unlink()
    _invoke(runner, "join", "--manifest", str(out / "manifest.json"),
            "--out", str(joined))
    assert joined.read_bytes() == payload


@pytest.mark.parametrize("scheme, cipher, digest", [("proposed", None, None),
                                                   ("aont-rs", "aes-128-ctr", "sha-256")])
def test_a_manifest_names_the_primitives_of_its_scheme(runner, tmp_path, scheme, cipher, digest):
    # the manifest's cipher and digest name the scheme's primitives; no file's digest
    _, out = _split(runner, tmp_path, os.urandom(5000), "--scheme", scheme, "--n", "6")
    doc = json.loads((out / "manifest.json").read_text())
    assert (doc.get("cipher"), doc.get("digest")) == (cipher, digest)


def test_baseline_split_join(runner, tmp_path):
    payload = os.urandom(10_000)
    src = tmp_path / "in.bin"
    src.write_bytes(payload)
    out = tmp_path / "ida"
    _invoke(runner, "split", "--in", str(src), "--scheme", "ida",
            "--k", "3", "--n", "5", "--out", str(out))
    files = sorted(out.glob("f*.kida"))
    assert len(files) == 5
    joined = tmp_path / "back.bin"
    _invoke(runner, "join", "--frags", *(str(f) for f in files[2:5]),
            "--out", str(joined))
    assert joined.read_bytes() == payload


@pytest.mark.parametrize(
    "scheme,k,n,lost",
    [("ida", "3", "5", "f1.kida"), ("sss", "2", "3", "f0.ksss")],
)
def test_join_manifest_k_of_n_baseline_after_loss(runner, tmp_path, scheme, k, n, lost):
    payload = os.urandom(10_000)
    src = tmp_path / "in.bin"
    src.write_bytes(payload)
    out = tmp_path / scheme
    _invoke(runner, "split", "--in", str(src), "--scheme", scheme,
            "--k", k, "--n", n, "--out", str(out))
    (out / lost).unlink()
    joined = tmp_path / "back.bin"
    _invoke(runner, "join", "--manifest", str(out / "manifest.json"),
            "--out", str(joined))
    assert joined.read_bytes() == payload


@pytest.mark.parametrize(
    "offset,value,code",
    [(5, b"\x00\x00", 2), (22, b"\x00\x05", 5)],
    ids=["header-k-zero", "five-byte-aes-key"],
)
def test_join_damaged_aont_files_exit_cleanly(runner, tmp_path, offset, value, code):
    src = tmp_path / "in.bin"
    src.write_bytes(os.urandom(3000))
    out = tmp_path / "aont"
    _invoke(runner, "split", "--in", str(src), "--scheme", "aont-rs",
            "--k", "2", "--n", "3", "--out", str(out))
    files = sorted(out.glob("f*.kant"))
    for path in files:
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 2] = value
        path.write_bytes(bytes(raw))
    _invoke(runner, "join", "--frags", *(str(f) for f in files),
            "--out", str(tmp_path / "x.bin"), code=code)


def test_join_manifest_with_every_fragment_lost_is_threshold_error(runner, tmp_path):
    _, out = _split(runner, tmp_path, os.urandom(5000))
    for path in out.glob("f*.kfrg"):
        path.unlink()
    _invoke(runner, "join", "--manifest", str(out / "manifest.json"),
            "--out", str(tmp_path / "x.bin"), code=4)


def test_disperse_requires_matching_site_count(runner, tmp_path):
    payload = os.urandom(3000)
    _, out = _split(runner, tmp_path, payload)
    result = _invoke(
        runner, "disperse", "--manifest", str(out / "manifest.json"),
        "--sites", str(tmp_path / "s0"), code=2,
    )
    assert "2" in result.output


@pytest.mark.parametrize("names", ["a,b,a", "a,b,a/x", "a/x,b,a", "a,b,link"],
                         ids=["same", "inside", "outside", "symlink"])
def test_disperse_refuses_two_sites_in_one_directory(runner, tmp_path, names):
    # one directory holding two sites' files hands one provider k rows
    _, out = _split(runner, tmp_path, os.urandom(100_000), "--n", "6")
    (tmp_path / "a").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "a", target_is_directory=True)
    before = _tree(tmp_path)
    sites = ",".join(str(tmp_path / name) for name in names.split(","))
    result = _invoke(runner, "disperse", "--manifest", str(out / "manifest.json"),
                     "--sites", sites, code=2)
    assert "overlap" in result.stderr
    assert "Traceback" not in result.output
    assert _tree(tmp_path) == before


def test_disperse_fetch_round_trip(runner, tmp_path):
    payload = os.urandom(30_000)
    _, out = _split(runner, tmp_path, payload)
    sites = f"{tmp_path / 's0'},{tmp_path / 's1'}"
    result = _invoke(runner, "disperse", "--manifest", str(out / "manifest.json"),
                     "--sites", sites)
    assert "f0\t0" in result.output and "f1\t1" in result.output
    fetched = tmp_path / "fetched"
    _invoke(runner, "fetch", "--manifest", str(out / "dispersal.json"),
            "--sites", sites, "--out", str(fetched))
    joined = tmp_path / "back.bin"
    _invoke(runner, "join", "--manifest", str(fetched / "manifest.json"),
            "--out", str(joined))
    assert joined.read_bytes() == payload

    # disperse and fetch move split's files byte for byte
    stored = [p for s in ("s0", "s1") for p in (tmp_path / s).rglob("*") if p.is_file()]
    assert len(stored) == 4
    for path in stored + sorted(fetched.glob("f*.kfrg")):
        assert path.read_bytes() == (out / path.name).read_bytes(), path
    # and all three manifests record the same digest for each index
    digests = [
        {e["index"]: e["sha256"] for e in json.loads(m.read_text())["fragments"]}
        for m in (out / "manifest.json", out / "dispersal.json", fetched / "manifest.json")
    ]
    assert len(digests[0]) == 4
    assert digests[0] == digests[1] == digests[2]


def test_disperse_labels_each_file_by_the_stem_of_its_name(runner, tmp_path):
    _, out = _split(runner, tmp_path, os.urandom(30_000), "--n", "6")
    sites = ",".join(str(tmp_path / f"s{i}") for i in range(3))
    result = _invoke(runner, "disperse", "--manifest", str(out / "manifest.json"),
                     "--sites", sites)
    assert result.stdout.splitlines() == [
        "fragment\tsite", "f0\t0", "f1\t1", "f2\t0", "f3\t1", "p0\t2", "p1\t2"]



@pytest.mark.parametrize("site", [7, -1])
def test_fetch_rejects_an_entry_on_a_site_outside_the_list(runner, tmp_path, site):
    _, out = _split(runner, tmp_path, os.urandom(3000))
    sites = f"{tmp_path / 's0'},{tmp_path / 's1'}"
    _invoke(runner, "disperse", "--manifest", str(out / "manifest.json"), "--sites", sites)
    doc = json.loads((out / "dispersal.json").read_text())
    doc["fragments"][1]["site"] = site
    (out / "dispersal.json").write_text(json.dumps(doc))
    result = _invoke(runner, "fetch", "--manifest", str(out / "dispersal.json"),
                     "--sites", sites, "--out", str(tmp_path / "fetched"), code=2)
    assert f"manifest references unknown site {site}" in result.output
    assert not (tmp_path / "fetched").exists()


# ---------------------------------------------------------------------------
# damaged files under parity
# ---------------------------------------------------------------------------


def _flip(path, offset=-1):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0x01
    path.write_bytes(bytes(raw))


def _disperse(runner, tmp_path, out, site_prefix="s"):
    """Disperse a k = 4, c = 2, n = 6 split; returns the --sites value."""
    sites = ",".join(str(tmp_path / f"{site_prefix}{i}") for i in range(3))
    _invoke(runner, "disperse", "--manifest", str(out / "manifest.json"), "--sites", sites)
    return sites


def _stored(tmp_path, name):
    """The dispersed object of split file ``name``."""
    (path,) = (p for i in range(3) for p in (tmp_path / f"s{i}").rglob(name))
    return path


def test_fetch_sets_aside_a_damaged_parity_object_it_does_not_need(runner, tmp_path):
    payload = os.urandom(50_000)
    _, out = _split(runner, tmp_path, payload, "--n", "6")
    sites = _disperse(runner, tmp_path, out)
    _flip(_stored(tmp_path, "p0.kpar"))
    fetched = tmp_path / "fetched"
    result = _invoke(runner, "fetch", "--manifest", str(out / "dispersal.json"),
                     "--sites", sites, "--out", str(fetched))
    assert "p0.kpar: digest mismatch, set aside" in result.stderr
    for name in ("f0.kfrg", "f1.kfrg", "f2.kfrg", "f3.kfrg"):
        assert (fetched / name).read_bytes() == (out / name).read_bytes()
    joined = tmp_path / "back.bin"
    _invoke(runner, "join", "--manifest", str(fetched / "manifest.json"),
            "--out", str(joined))
    assert joined.read_bytes() == payload


def test_join_rebuilds_a_damaged_data_file_from_parity(runner, tmp_path):
    payload = os.urandom(50_000)
    _, out = _split(runner, tmp_path, payload, "--n", "6")
    _flip(out / "f1.kfrg")
    joined = tmp_path / "back.bin"
    result = _invoke(runner, "join", "--manifest", str(out / "manifest.json"),
                     "--out", str(joined))
    assert joined.read_bytes() == payload
    assert "f1.kfrg: digest mismatch, rebuilt from parity" in result.stderr


@pytest.mark.parametrize("command", ["fetch", "join"])
def test_damage_beyond_parity_names_the_damaged_file(runner, tmp_path, command):
    payload = os.urandom(50_000)
    _, out = _split(runner, tmp_path, payload, "--n", "6")
    if command == "fetch":
        sites = _disperse(runner, tmp_path, out)
        where = functools.partial(_stored, tmp_path)
        result = tmp_path / "fetched"
        args = ["fetch", "--manifest", str(out / "dispersal.json"), "--sites", sites,
                "--out", str(result)]
    else:
        where = out.joinpath
        result = tmp_path / "back.bin"
        args = ["join", "--manifest", str(out / "manifest.json"), "--out", str(result)]
    _flip(where("f1.kfrg"))
    where("f0.kfrg").unlink()
    # f2, f3 and both parity rows verify: four of six rows rebuild f0 and f1
    _invoke(runner, *args)
    if command == "fetch":
        for name in ("f0.kfrg", "f1.kfrg"):
            assert (result / name).read_bytes() == (out / name).read_bytes()
    else:
        assert result.read_bytes() == payload
    where("f2.kfrg").unlink()
    failed = _invoke(runner, *args, code=5)
    assert "digest mismatch for" in failed.output and "f1.kfrg" in failed.output


@pytest.mark.parametrize("command", ["fetch", "join"])
def test_two_files_rebuilt_together_take_the_decodes_of_one(runner, tmp_path, monkeypatch,
                                                            command):
    # files of about 1.5 MiB, rebuilt a piece at a time: each piece is decoded once for
    # all the files lost, so losing f0 and f1 takes as many rs_decode calls as losing f1
    payload = os.urandom(6 << 20)
    _, out = _split(runner, tmp_path, payload, "--n", "6")
    calls = []
    rs_decode = dispersal.rs_decode
    monkeypatch.setattr(dispersal, "rs_decode", lambda *a: calls.append(a) or rs_decode(*a))

    def decodes(lost: list[str]) -> int:
        base = tmp_path / "-".join(lost)
        shutil.copytree(out, base / "frags")
        if command == "fetch":
            sites = _disperse(runner, base, base / "frags")
            for name in lost:
                _stored(base, name).unlink()
            args = ["fetch", "--manifest", str(base / "frags" / "dispersal.json"),
                    "--sites", sites, "--out", str(base / "fetched")]
        else:
            for name in lost:
                (base / "frags" / name).unlink()
            args = ["join", "--manifest", str(base / "frags" / "manifest.json"),
                    "--out", str(base / "back.bin")]
        calls.clear()
        _invoke(runner, *args)
        if command == "fetch":
            for name in lost:
                assert (base / "fetched" / name).read_bytes() == (out / name).read_bytes()
        else:
            assert (base / "back.bin").read_bytes() == payload
        return len(calls)

    assert decodes(["f0.kfrg", "f1.kfrg"]) == decodes(["f1.kfrg"]) > 1


@pytest.mark.parametrize("command", ["fetch", "join"])
def test_a_rebuilt_file_must_match_its_recorded_digest(runner, tmp_path, command):
    payload = os.urandom(50_000)
    _, out = _split(runner, tmp_path, payload, "--n", "6")
    if command == "fetch":
        sites = _disperse(runner, tmp_path, out)
        manifest = out / "dispersal.json"
        _stored(tmp_path, "f0.kfrg").unlink()
        args = ["fetch", "--sites", sites, "--out", str(tmp_path / "fetched")]
    else:
        manifest = out / "manifest.json"
        (out / "f0.kfrg").unlink()
        args = ["join", "--out", str(tmp_path / "back.bin")]
    doc = json.loads(manifest.read_text())
    doc["fragments"][0]["sha256"] = hashlib.sha256(b"not f0").hexdigest()
    manifest.write_text(json.dumps(doc))
    # the other five files verify, so parity rebuilds f0, but not to that digest
    failed = _invoke(runner, *args, "--manifest", str(manifest), code=5)
    assert "digest mismatch for rebuilt" in failed.output and "f0.kfrg" in failed.output


@pytest.mark.parametrize("command", ["fetch", "join"])
def test_each_file_set_aside_or_rebuilt_is_named_once(runner, tmp_path, command):
    payload = os.urandom(50_000)
    _, out = _split(runner, tmp_path, payload, "--n", "6")
    if command == "fetch":
        sites = _disperse(runner, tmp_path, out)
        where = functools.partial(_stored, tmp_path)
        args = ["fetch", "--manifest", str(out / "dispersal.json"), "--sites", sites,
                "--out", str(tmp_path / "fetched")]
    else:
        where = out.joinpath
        args = ["join", "--manifest", str(out / "manifest.json"),
                "--out", str(tmp_path / "back.bin")]
    where("f0.kfrg").unlink()
    _flip(where("p0.kpar"))
    lines = _invoke(runner, *args).stderr.splitlines()
    assert [line.split("/")[-1] for line in lines[:-1]] == [
        "f0.kfrg: missing, rebuilt from parity", "p0.kpar: digest mismatch, set aside"]
    assert lines[-1].startswith("fetched 4 fragments" if command == "fetch" else "wrote 50000")


@pytest.mark.parametrize("command", ["fetch", "join"])
def test_a_mismatch_found_once_the_files_are_streamed_leaves_no_output(
    runner, tmp_path, monkeypatch, command
):
    # every file is there, so fetch and join take them one object or segment at
    # a time; the last byte of the last file decides, once the rest is written
    monkeypatch.setattr(gf256, "_CORES", 2)
    _, out = _split(runner, tmp_path, os.urandom(13 << 20))
    if command == "fetch":
        sites = f"{tmp_path / 's0'},{tmp_path / 's1'}"
        _invoke(runner, "disperse", "--manifest", str(out / "manifest.json"), "--sites", sites)
        (victim,) = (tmp_path / "s1").rglob("f3.kfrg")
        result = tmp_path / "new" / "fetched"
        args = ["fetch", "--manifest", str(out / "dispersal.json"), "--sites", sites,
                "--out", str(result)]
    else:
        victim = out / "f3.kfrg"
        result = tmp_path / "new" / "back.bin"
        args = ["join", "--manifest", str(out / "manifest.json"), "--out", str(result)]
    _flip(victim)
    writes = []
    write_files = dispersal.write_files
    monkeypatch.setattr(dispersal, "write_files", lambda *a: writes.append(a) or write_files(*a))
    failed = _invoke(runner, *args, code=5)
    assert "digest mismatch for" in failed.stderr and "f3.kfrg" in failed.stderr
    assert failed.stdout == ""
    assert not (tmp_path / "new").exists()
    assert len(writes) == 1  # the streamed pass, undone; the set read whole is refused


def _refuse_whole_reads(monkeypatch):
    """Make ``dispersal.read_file`` refuse to read a file whole."""
    read_file = dispersal.read_file

    def sparse_only(path, sparse=False, hashed=True):
        if not sparse:
            raise AssertionError(f"{path} was read whole")
        return read_file(path, sparse, hashed)

    monkeypatch.setattr(dispersal, "read_file", sparse_only)


# the damage a fetch or a join --manifest meets: the files lost, the bytes flipped
# as (name, offset), the entries whose recorded digest is another file's, the
# exit code and the stderr lines
_DAMAGE = [
    pytest.param(["f1.kfrg"], [], [], 0, ["f1.kfrg: missing, rebuilt from parity"], id="lost"),
    pytest.param([], [("f1.kfrg", -1000)], [], 0,
                 ["f1.kfrg: digest mismatch, rebuilt from parity"], id="damaged"),
    pytest.param([], [("p0.kpar", -1000)], [], 0, ["p0.kpar: digest mismatch, set aside"],
                 id="unneeded-parity-damaged"),
    pytest.param(["f0.kfrg"], [("p0.kpar", -1000)], [], 0,
                 ["f0.kfrg: missing, rebuilt from parity", "p0.kpar: digest mismatch, set aside"],
                 id="needed-parity-damaged"),
    # byte 12 is the top byte of the length of a data file that p0's header records
    pytest.param(["f0.kfrg"], [("p0.kpar", 12)], [], 0,
                 ["f0.kfrg: missing, rebuilt from parity", "p0.kpar: digest mismatch, set aside"],
                 id="needed-parity-length-damaged"),
    pytest.param(["f0.kfrg", "f2.kfrg"], [("f1.kfrg", -1000)], [], 5,
                 ["digest mismatch for", "f1.kfrg'"], id="damage-beyond-parity"),
    pytest.param(["f0.kfrg"], [], [0], 5, ["digest mismatch for rebuilt", "f0.kfrg'"],
                 id="rebuilt-fails-its-digest"),
]


@pytest.mark.parametrize("command, lost, flipped, misrecorded, code, lines", [
    *(pytest.param(command, *case.values, id=f"{command}-{case.id}")
      for command in ("fetch", "join") for case in _DAMAGE),
    # join --frags of the files not lost, which has no digests to check
    pytest.param("frags", ["f1.kfrg", "p1.kpar"], [], [], 0, [], id="frags-f0-f2-f3-p0"),
    pytest.param("frags", ["f1.kfrg", "f3.kfrg", "p0.kpar"], [], [], 4,
                 ["erasure threshold not met: need 4 fragments, got 3"], id="frags-f0-f2-p1"),
])
def test_join_and_fetch_read_no_file_whole_whatever_the_damage(
    runner, tmp_path, monkeypatch, command, lost, flipped, misrecorded, code, lines
):
    # each case keeps its exit code and stderr lines, and no fragment or parity file
    # is read whole: each is read and hashed a piece at a time, rebuilt ones too
    payload = os.urandom(3 << 20)
    _, out = _split(runner, tmp_path, payload, "--n", "6")
    if command == "fetch":
        sites = _disperse(runner, tmp_path, out)
        where = functools.partial(_stored, tmp_path)
        manifest = out / "dispersal.json"
        args = ["fetch", "--sites", sites, "--out", str(tmp_path / "fetched"),
                "--manifest", str(manifest)]
    else:
        where = out.joinpath
        manifest = out / "manifest.json"
        args = ["join", "--out", str(tmp_path / "back.bin")]
        args += (["--manifest", str(manifest)] if command == "join" else
                 ["--frags", *(str(p) for p in sorted(out.glob("*.k*")) if p.name not in lost)])
    for name, offset in flipped:
        _flip(where(name), offset)
    for name in lost:
        where(name).unlink()
    doc = json.loads(manifest.read_text())
    for index in misrecorded:
        doc["fragments"][index]["sha256"] = hashlib.sha256(b"another file").hexdigest()
    manifest.write_text(json.dumps(doc))
    _refuse_whole_reads(monkeypatch)
    result = _invoke(runner, *args, code=code)
    if code:
        assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1
        assert all(line in result.stderr for line in lines)
        return
    reported = [line.split("/")[-1] for line in result.stderr.splitlines()]
    assert reported[:-1] == lines
    if command == "fetch":
        for name in ("f0.kfrg", "f1.kfrg", "f2.kfrg", "f3.kfrg"):
            assert (tmp_path / "fetched" / name).read_bytes() == (out / name).read_bytes()
    else:
        assert (tmp_path / "back.bin").read_bytes() == payload


def _cut(path):
    path.write_bytes(path.read_bytes()[:-1])


def _swap(path, other):
    a, b = path.read_bytes(), other.read_bytes()
    path.write_bytes(b)
    other.write_bytes(a)


@pytest.mark.parametrize("damage, named, stores", [
    # a digest decides as the file is stored: the last byte of the last data file,
    # or f0 holding f1's bytes, which parse as a whole set
    pytest.param(lambda out: _flip(out / "f3.kfrg"), "f3.kfrg", 1, id="last-byte-of-f3"),
    pytest.param(lambda out: _swap(out / "f0.kfrg", out / "f1.kfrg"), "f0.kfrg", 1,
                 id="f0-and-f1-swapped"),
    # the others fail a parse or a read before anything is stored
    pytest.param(lambda out: _flip(out / "f1.kfrg", 0), "f1.kfrg", 0, id="magic-of-f1"),
    pytest.param(lambda out: _flip(out / "f1.kfrg", wire.HEADER_SIZE + 34 + 3), "f1.kfrg", 0,
                 id="share-count-of-f1"),
    pytest.param(lambda out: _cut(out / "f1.kfrg"), "f1.kfrg", 0, id="truncated-f1"),
    pytest.param(lambda out: _cut(out / "p0.kpar"), "p0.kpar", 0, id="truncated-p0"),
    pytest.param(lambda out: (_flip(out / "f0.kfrg"), (out / "f1.kfrg").unlink()), "f0.kfrg", 0,
                 id="f1-lost-and-f0-damaged"),
])
def test_a_disperse_of_a_damaged_file_stores_nothing(
    runner, tmp_path, monkeypatch, damage, named, stores
):
    # the error names the first file in manifest order that is lost or damaged, as a
    # read of the whole set would, though no file is read whole
    _, out = _split(runner, tmp_path, os.urandom(3 << 20), "--n", "6")
    damage(out)
    stored = []
    store, read_file = dispersal.store, dispersal.read_file
    monkeypatch.setattr(dispersal, "store", lambda *a, **kw: stored.append(a) or store(*a, **kw))

    def sparse_only(path, sparse=False, hashed=True):
        if not sparse:
            raise AssertionError(f"{path} was read whole")
        return read_file(path, sparse, hashed)

    monkeypatch.setattr(dispersal, "read_file", sparse_only)
    sites = ",".join(str(tmp_path / f"s{i}") for i in range(3))
    failed = _invoke(runner, "disperse", "--manifest", str(out / "manifest.json"),
                     "--sites", sites, code=5)
    assert failed.stderr == f"error: digest mismatch for '{named}'\n"
    assert failed.stdout == ""
    assert len(stored) == stores  # a store is undone
    assert not any((tmp_path / f"s{i}").exists() for i in range(3))
    assert not (out / "dispersal.json").exists()


@pytest.mark.parametrize("frags, out, code, message", [
    (["f0.kfrg", "f1.kfrg", "f2.kfrg"], "back.bin", 4, "missing fragments [3]"),
    (["f0.kfrg", "f1.kfrg", "f2.kfrg", "f3.kfrg"], "in.bin/back.bin", 3, "Not a directory"),
], ids=["threshold", "output-under-a-file"])
def test_a_failed_join_of_regular_fragment_files_reports_its_error_without_reading_them_whole(
    runner, tmp_path, monkeypatch, frags, out, code, message
):
    _, split_out = _split(runner, tmp_path, os.urandom(1 << 20))

    def refused(*args):
        raise AssertionError("the files were read whole")

    monkeypatch.setattr(cli, "load_files", refused)
    failed = _invoke(runner, "join", "--frags", *(str(split_out / name) for name in frags),
                     "--out", str(tmp_path / out), code=code)
    assert message in failed.stderr
    assert failed.stdout == ""


@pytest.mark.parametrize("k,c,bs,n", [(4, 2, 250, 4), (4, 2, 16, 4), (6, 3, 250, 8),
                                      (8, 4, 16, 10)])
def test_a_split_read_a_chunk_at_a_time_writes_the_files_of_the_payload_read_whole(
    runner, tmp_path, monkeypatch, k, c, bs, n
):
    # parts of 512 KiB on one core: chunks of 762 rows at (4,2,250), so the scan
    # runs in each chunk at c = 2; at c >= 3, chunks of about 1 MiB on two cores,
    # each but the first encoded on a second thread while this one writes the one
    # before; payloads of several chunks and a tail, and at a chunk boundary and a
    # byte either side of it
    monkeypatch.setattr(gf256, "_CORES", 1 if c == 2 else 2)
    monkeypatch.setattr(gf256, "_PART_MIN_BYTES", 1 << 19)
    params = codec.CodecParams(k, c, bs)
    least = gf256._PART_MIN_BYTES if c == 2 else gf256._SWEEP_CHUNK_BYTES
    batches = -(-least // (254 * params.group_size))
    boundary = 2 * batches * 254 * params.group_size
    lengths = [boundary - 1, boundary, boundary + 1]
    if (k, bs) == (4, 250) or c > 2:
        lengths.append(3 * boundary // 2 + 4321)
        assert len(codec.encode_chunks(params, lengths[-1])) >= 3
    whole = cli._split_whole

    def refused(*args):
        raise AssertionError("the input was read whole")

    monkeypatch.setattr(cli, "_split_whole", refused)
    for length in lengths:
        src = tmp_path / f"{length}.bin"
        src.write_bytes(os.urandom(length))
        streamed, reference = tmp_path / f"s{length}", tmp_path / f"w{length}"
        _seeded(monkeypatch, length)
        _invoke(runner, "split", "--in", str(src), "--out", str(streamed), "--k", str(k),
                "--c", str(c), "--block-size", str(bs), "--n", str(n))
        _seeded(monkeypatch, length)
        whole(src, cli.SchemeId.PROPOSED, k, n, c, bs, reference)
        files = sorted(p.name for p in reference.iterdir())
        assert sorted(p.name for p in streamed.iterdir()) == files
        for name in files:
            if name != "manifest.json":
                assert (streamed / name).read_bytes() == (reference / name).read_bytes(), name
        entries = [json.loads((d / "manifest.json").read_text())["fragments"]
                   for d in (streamed, reference)]
        assert entries[0] == entries[1]


def test_analyze_writes_report_and_summary(runner, tmp_path, monkeypatch):
    src = tmp_path / "text.bin"
    src.write_bytes(text_sample(100_000, seed=77))
    report = tmp_path / "report.json"
    # seeded permutations: uniform fragments still fail chi-squared at alpha = 0.05
    # about one draw in ten, and this draw passes
    _seeded(monkeypatch, 31337)
    result = _invoke(
        runner, "analyze", "--in", str(src), "--scheme", "proposed",
        "--k", "2", "--c", "2", "--block-size", "34", "--report", str(report),
    )
    doc = json.loads(report.read_text())
    assert doc["scheme"] == "proposed"
    assert len(doc["fragments"]) == 2
    assert "summary: 2/2 fragments pass chi-squared" in result.output


def test_analyze_ida_on_periodic_text_fails_chi2(runner, tmp_path):
    from oracles import periodic_sample

    src = tmp_path / "per.bin"
    src.write_bytes(periodic_sample(60_000, period=32, seed=3))
    report = tmp_path / "report.json"
    result = _invoke(
        runner, "analyze", "--in", str(src), "--scheme", "ida",
        "--k", "4", "--report", str(report),
    )
    assert "0/4 fragments pass" in result.output


def test_bench_csv_schema_and_malformed_grid(runner, tmp_path):
    result = _invoke(
        runner, "bench", "--grid", "2,2,34", "--payload-mb", "1", "--reps", "3",
        "--warmup", "0",
    )
    lines = [l for l in result.output.splitlines() if "," in l]
    assert lines[0] == "scheme,k,c,block_size,mb_per_s_median,mb_per_s_stddev,direction"
    assert len(lines) == 3  # header + split + join
    _invoke(runner, "bench", "--grid", "nope", code=2)
    _invoke(runner, "bench", "--grid", "2,2", code=2)
    _invoke(runner, "bench", "--schemes", "made-up", code=2)


def test_splits_of_one_file_differ_with_frag_rng_seed_exported(runner, tmp_path):
    # the permutations are the scheme's only secret: no variable once used to
    # seed them in tests may make two splits of one file come out the same
    src = tmp_path / "in.bin"
    src.write_bytes(os.urandom(4096))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        _invoke(runner, "split", "--in", str(src), "--out", str(out),
                "--k", "2", "--c", "2", "--block-size", "16", env={"FRAG_RNG_SEED": "1"})
    for fname in ("f0.kfrg", "f1.kfrg"):
        assert (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes()


# ---------------------------------------------------------------------------
# failed writes
# ---------------------------------------------------------------------------

_LIMITED = """
import resource, signal, sys
from kfrag.cli import main
# set after the imports: a limit in force while they run truncates .pyc files
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (20000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
main(sys.argv[1:], prog_name="kfrag")
"""

_SPLIT = ["split", "--in", "in.bin", "--out", "frags"]
_SPLIT_N6 = [*_SPLIT, "--n", "6"]
_DISPERSE = ["disperse", "--manifest", "frags/manifest.json", "--sites"]
_FETCH = ["fetch", "--manifest", "frags/dispersal.json", "--sites"]


def _tree(root):
    """Every path under ``root``: a file's bytes, or None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


@pytest.mark.parametrize("setup, command, code, created", [
    pytest.param([], _SPLIT, 3, [], id="split"),
    pytest.param([["split", "--in", "old.bin", "--out", "frags"]], _SPLIT, 3, [],
                 id="split-over-an-older-split"),
    pytest.param([_SPLIT], ["join", "--manifest", "frags/manifest.json", "--out", "out.bin"],
                 3, [], id="join-over-an-older-file"),
    # from 8 MiB of output, on two or more cores, a second thread writes the file
    pytest.param([["split", "--in", "big.bin", "--out", "frags"]],
                 ["join", "--manifest", "frags/manifest.json", "--out", "out.bin"],
                 3, [], id="join-of-8-mib-over-an-older-file"),
    pytest.param([_SPLIT, [*_DISPERSE, "t0,t1"]], [*_FETCH, "t0,t1", "--out", "back"],
                 3, [], id="fetch"),
    pytest.param([_SPLIT_N6, "frags/f2.kfrg"], [*_DISPERSE, "t0,t1,t2"], 3, [],
                 id="disperse-with-a-lost-file"),
    # files of 12.5 kB fit under the limit; the dispersal manifest cannot go into a file
    pytest.param([[*_SPLIT, "--k", "8"]],
                 [*_DISPERSE, "t0,t1", "--manifest-out", "old.bin/dispersal.json"], 3, [],
                 id="disperse-without-its-manifest"),
    pytest.param([_SPLIT_N6], _SPLIT, 2, [], id="split-over-stale-parity"),
    pytest.param([_SPLIT, [*_DISPERSE, "t0,t1"], ["split", "--in", "old.bin", "--out", "back",
                                                  "--n", "6"]],
                 [*_FETCH, "t0,t1", "--out", "back"], 2, [], id="fetch-over-stale-parity"),
])
def test_a_failed_command_leaves_the_files_as_they_were(
    runner, tmp_path, monkeypatch, setup, command, code, created
):
    # the command runs under a 20000-byte file-size limit, below the size of
    # each file it would write; a str step of the setup deletes that file
    monkeypatch.chdir(tmp_path)
    for name, size in (("in.bin", 100_000), ("old.bin", 100_000), ("out.bin", 50_000),
                       ("big.bin", 8 << 20)):
        (tmp_path / name).write_bytes(os.urandom(size))
    for step in setup:
        if isinstance(step, str):
            (tmp_path / step).unlink()
        else:
            _invoke(runner, *step)
    before = _tree(tmp_path)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(kfrag.__file__).resolve().parent.parent)}
    child = subprocess.run([sys.executable, "-c", _LIMITED, *command], cwd=tmp_path,
                           env=env, capture_output=True, timeout=120)
    assert child.returncode == code, child.stderr
    assert child.stdout == b""  # no manifest path, table or digest
    assert _tree(tmp_path) == {**before, **dict.fromkeys(created)}


_LIMITED_SPLIT = """
import atexit, resource, signal, sys
from kfrag import cli, gf256
# parts of 512 KiB on one core: chunks of 762 kB, pieces of 190 kB per file
gf256._CORES, gf256._PART_MIN_BYTES = 1, 1 << 19
encode, encoded = cli.encode_data, []
cli.encode_data = lambda *args: encoded.append(1) or encode(*args)
atexit.register(lambda: print(f"encoded {len(encoded)}", file=sys.stderr))
# set after the imports: a limit in force while they run truncates .pyc files
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
cli.main(sys.argv[1:], prog_name="kfrag")
"""


def test_a_split_whose_write_fails_midway_leaves_no_file(tmp_path):
    # 6 MiB at k = 4: each file passes the 1 MiB file-size limit in the sixth chunk,
    # and the error is reported then, with the input never read whole
    (tmp_path / "in.bin").write_bytes(os.urandom(6 << 20))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(kfrag.__file__).resolve().parent.parent)}
    child = subprocess.run([sys.executable, "-c", _LIMITED_SPLIT, "split", "--in", "in.bin",
                            "--out", "new/frags"], cwd=tmp_path, env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 3, child.stderr
    error, encoded = child.stderr.splitlines()
    assert re.fullmatch(r"error: \[Errno 27\] File too large: 'new/frags/f[0-3]\.kfrg'", error)
    assert int(encoded.split()[1]) == 6  # the chunks, and no encode of the input read whole
    assert child.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["in.bin"]


def _split_c3(runner, tmp_path):
    """``split --k 6 --c 3 --n 8`` of 3.5 MB, three chunks of about 1 MiB and a tail."""
    src = tmp_path / "in.bin"
    src.write_bytes(os.urandom(3_500_000))
    assert len(codec.encode_chunks(codec.CodecParams(6, 3, 250), 3_500_000)) == 3
    return runner.invoke(main, ["split", "--in", str(src), "--out", str(tmp_path / "new" / "frags"),
                                "--k", "6", "--c", "3", "--n", "8"])


def test_a_c3_split_writes_each_chunk_on_its_thread_while_a_second_encodes_the_next(
    runner, tmp_path, monkeypatch
):
    monkeypatch.setattr(gf256, "_CORES", 2)
    calls, alive = [], []

    def watched(name, fn):
        def call(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            alive.append(threading.active_count())
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(cli, "encode_data", watched("encode", cli.encode_data))
    monkeypatch.setattr(wire, "dump_fragment", watched("dump", wire.dump_fragment))
    monkeypatch.setattr(cli, "parity_fragments", watched("parity", cli.parity_fragments))
    before = threading.active_count()
    result = _split_c3(runner, tmp_path)
    assert result.exit_code == 0, result.output
    main_thread = threading.main_thread()
    encodes = [thread for name, thread in calls if name == "encode"]
    assert len(encodes) == 3 and encodes[0] is main_thread
    assert all(thread is not main_thread for thread in encodes[1:])
    # dumps, RS parity, appends and hashes stay on the split's thread
    assert {thread for name, thread in calls if name != "encode"} == {main_thread}
    assert len([name for name, _ in calls if name == "parity"]) == 3
    assert max(alive) == before + 1  # two threads, whatever the loops inside each part
    joined = tmp_path / "back.bin"
    _invoke(runner, "join", "--manifest", str(tmp_path / "new" / "frags" / "manifest.json"),
            "--out", str(joined))
    assert joined.read_bytes() == (tmp_path / "in.bin").read_bytes()


class _Full:
    """An open file whose writes after the first fail as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, buf):
        self.writes += 1
        if self.writes > 1:
            raise OSError(28, "No space left on device", "ignored")
        return self.fh.write(buf)


def _filling(path, mode="r", **kwargs):
    """``open``, but a file opened for writing is a _Full one."""
    fh = open(path, mode, **kwargs)
    return _Full(fh) if "w" in mode else fh


@pytest.mark.parametrize("encode_fails, append_fails, message", [
    # the second chunk's encode, on the second thread, as the first is written
    (2, False, "error: out of memory in split on a payload of 3500000 bytes"),
    # the second chunk's append to f0, as the third is encoded
    (None, True, "error: [Errno 28] No space left on device: '{f0}'"),
    # both in one step: the first part's error, the append's
    (3, True, "error: [Errno 28] No space left on device: '{f0}'"),
], ids=["encode", "append", "both"])
def test_a_c3_split_that_fails_midway_leaves_no_file_and_no_thread(
    runner, tmp_path, monkeypatch, encode_fails, append_fails, message
):
    monkeypatch.setattr(gf256, "_CORES", 2)
    encode, encoded = cli.encode_data, []

    def failing(*args):
        encoded.append(threading.current_thread())
        if len(encoded) == encode_fails:
            raise MemoryError("no room for the chunk")
        return encode(*args)

    monkeypatch.setattr(cli, "encode_data", failing)
    if append_fails:
        monkeypatch.setattr(dispersal, "open", _filling, raising=False)
    result = _split_c3(runner, tmp_path)
    assert result.exit_code == 3, result.output
    assert result.stderr == message.format(f0=tmp_path / "new" / "frags" / "f0.kfrg") + "\n"
    assert result.stdout == ""
    assert len(encoded) == (encode_fails or 3) and encoded[-1] is not threading.main_thread()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]


@pytest.mark.parametrize("k,c,n", [(4, 2, 4), (6, 3, 8)])
def test_split_holds_two_copies_of_the_payload(runner, tmp_path, k, c, n):
    # at c = 2, 6 MiB is one chunk and runs as one part on any host; the peak is
    # the input and the encoded rows, then the rows and the files, then the files,
    # the parity and its scratch.  At c = 3 it is five chunks of about 1 MiB, each
    # but the first encoded on a second thread from 2 cores on, and holds less.
    size = 6 << 20
    (tmp_path / "in.bin").write_bytes(os.urandom(size))
    tracemalloc.start()
    try:
        _invoke(runner, "split", "--in", str(tmp_path / "in.bin"),
                "--out", str(tmp_path / "frags"), "--k", str(k), "--c", str(c), "--n", str(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * size


_OUT_OF_MEMORY = """
import resource, sys
from kfrag.cli import main
# set after the imports: room for a few MiB more than the interpreter holds now
held = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS,
                   (held + (6 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
main(sys.argv[1:], prog_name="kfrag")
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
def test_a_payload_that_does_not_fit_in_memory_exits_3_without_a_traceback(
    runner, tmp_path, monkeypatch
):
    # 7 MiB: below the 8 MiB from which a second thread would start
    monkeypatch.chdir(tmp_path)
    size = 7 << 20
    (tmp_path / "in.bin").write_bytes(os.urandom(size))
    _invoke(runner, *_SPLIT)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(kfrag.__file__).resolve().parent.parent)}
    for command in (["split", "--in", "in.bin", "--out", "again"],
                    ["join", "--manifest", "frags/manifest.json", "--out", "out.bin"]):
        child = subprocess.run([sys.executable, "-c", _OUT_OF_MEMORY, *command], cwd=tmp_path,
                               env=env, capture_output=True, timeout=120)
        assert child.returncode == 3, child.stderr
        assert child.stderr.decode() == (
            f"error: out of memory in {command[0]} on a payload of {size} bytes\n"
        )
        assert child.stdout == b""
    assert not (tmp_path / "again").exists() and not (tmp_path / "out.bin").exists()


def test_a_join_from_8_mib_writes_on_its_thread_while_another_hashes(
    runner, tmp_path, monkeypatch
):
    # 13 MiB at block 34 is two decode segments on two cores; each is written on
    # this thread, where the next is decoded, while a second thread hashes it
    monkeypatch.setattr(gf256, "_CORES", 2)
    hashed, writers = [], []

    class Sha256:
        def __init__(self):
            self.sha = hashlib.sha256()

        def update(self, piece):
            hashed.append((len(piece), threading.current_thread()))
            self.sha.update(piece)

        def hexdigest(self):
            return self.sha.hexdigest()

    write_files = dispersal.write_files

    def on_thread(*args):
        writers.append(threading.current_thread())
        return write_files(*args)

    monkeypatch.setattr(cli, "hashlib", SimpleNamespace(sha256=Sha256))
    monkeypatch.setattr(dispersal, "write_files", on_thread)
    # below 8 MiB both stay on this thread, as the digest and the write did before
    for size, beside in ((13 << 20, True), (2 * gf256._PART_MIN_BYTES - 1, False)):
        payload = os.urandom(size)
        where = tmp_path / str(size)
        where.mkdir()
        _, out = _split(runner, where, payload)
        hashed.clear()
        writers.clear()
        joined = where / "back.bin"
        result = _invoke(runner, "join", "--manifest", str(out / "manifest.json"),
                         "--out", str(joined))
        assert result.stdout.strip() == hashlib.sha256(payload).hexdigest()
        assert joined.read_bytes() == payload
        assert writers == [threading.main_thread()]
        assert len(hashed) == (2 if beside else 1)
        assert sum(n for n, _ in hashed) == size
        assert all((thread is threading.main_thread()) is not beside for _, thread in hashed)


def test_a_join_whose_write_fails_midway_leaves_no_file_and_no_thread(
    runner, tmp_path, monkeypatch
):
    # the disk fills after the first of two segments, while a second thread hashes it;
    # the thread is joined before the command ends (the autouse fixture checks)
    monkeypatch.setattr(gf256, "_CORES", 2)
    _, out = _split(runner, tmp_path, os.urandom(13 << 20))
    monkeypatch.setattr(dispersal, "open", _filling, raising=False)
    result = runner.invoke(main, ["join", "--manifest", str(out / "manifest.json"),
                                  "--out", str(tmp_path / "new" / "back.bin")])
    assert result.exit_code == 3
    assert str(Path("new", "back.bin")) in result.stderr
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("k,c,n", [
    pytest.param(4, 2, 4, id="4-2"), pytest.param(6, 3, 6, id="6-3"),
    pytest.param(8, 4, 8, id="8-4"),
    # f1 lost: rebuilt from parity a piece at a time, across the decode segments
    pytest.param(4, 2, 6, id="4-2-f1-rebuilt"),
])
def test_a_join_of_several_segments_gives_the_payload_and_its_digest(
    runner, tmp_path, monkeypatch, k, c, n
):
    monkeypatch.setattr(gf256, "_CORES", 1)
    payload = os.urandom((7 << 20) + 13)
    src = tmp_path / "in.bin"
    src.write_bytes(payload)
    out = tmp_path / "frags"
    _invoke(runner, "split", "--in", str(src), "--out", str(out), "--k", str(k), "--c", str(c),
            "--block-size", "16", "--n", str(n))
    params = codec.CodecParams(k, c, 16)
    rows = codec.padded_length(len(payload), params) // params.group_size
    assert len(codec.decode_segments(params, rows)) >= 2
    digest = hashlib.sha256(payload).hexdigest()
    names = [f"f{j}.kfrg" for j in range(k)]
    if n > k:
        (out / "f1.kfrg").unlink()
        names[1] = "p0.kpar"
    for args in (["--manifest", str(out / "manifest.json")],
                 ["--frags", *(str(out / name) for name in names)]):
        joined = tmp_path / "back.bin"
        result = _invoke(runner, "join", *args, "--out", str(joined))
        assert result.stdout.strip() == digest
        assert joined.read_bytes() == payload
        joined.unlink()


# runs a command with two parts, as on a 2-core host, and reports its peak RSS;
# a child's ru_maxrss starts at its parent's high-water mark, so the command is
# started from this small launcher, as perfbench/run.py does
_PEAK = """
import os, sys
command = ("import sys; from kfrag import gf256; gf256._CORES = 2; "
           "from kfrag.cli import main; main(sys.argv[1:], prog_name='kfrag')")
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", command, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux gives it")
def test_join_and_fetch_hold_a_segment_and_an_object_per_part_whatever_the_payload(
    runner, tmp_path
):
    # the peak RSS of each command, which counts the mappings split, join and disperse
    # read their files into, at 16 and 48 MiB (4 data files of 4 and 12 MiB); holding
    # the payload or every file, as each command once did, would add the 32 MiB
    # between them.  split holds a chunk of input and of rows (one of 16.8 MB at
    # 16 MiB, 10.2 MB at 48 MiB), disperse a piece of a file per part; at c = 3,
    # split holds about three chunks of 1.1 to 1.5 MB, on two threads.
    env = {**os.environ, "PYTHONPATH": str(Path(kfrag.__file__).resolve().parent.parent)}
    peaks = {}
    for mib in (16, 48):
        where = tmp_path / str(mib)
        where.mkdir()
        payload = os.urandom(mib << 20)
        (where / "in.bin").write_bytes(payload)
        sites = f"{where / 's0'},{where / 's1'}"
        for name, command in (
            ("split", ["split", "--in", "in.bin", "--out", "frags"]),
            ("disperse", ["disperse", "--manifest", "frags/manifest.json", "--sites", sites]),
            ("join", ["join", "--manifest", "frags/manifest.json", "--out", "back.bin"]),
            ("fetch", ["fetch", "--manifest", "frags/dispersal.json", "--sites", sites,
                       "--out", "fetched"]),
            ("split c3", ["split", "--in", "in.bin", "--out", "frags3", "--k", "6", "--c", "3",
                          "--n", "8"]),
        ):
            child = subprocess.run([sys.executable, "-c", _PEAK, *command], cwd=where, env=env,
                                   capture_output=True, timeout=120)
            assert child.returncode == 0, child.stderr
            peaks[name, mib] = int(child.stdout.split()[-1]) << 10  # KiB
        assert (where / "back.bin").read_bytes() == payload
        fetched = where / "fetched" / "f3.kfrg"
        assert fetched.read_bytes() == (where / "frags" / "f3.kfrg").read_bytes()
    for command in ("split", "disperse", "join", "split c3"):
        assert peaks[command, 48] - peaks[command, 16] < 8 << 20, peaks
    assert peaks["fetch", 48] - peaks["fetch", 16] < 2 * (12 << 20), peaks


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux gives it")
def test_join_and_fetch_rebuilding_from_parity_hold_a_piece_whatever_the_payload(
    runner, tmp_path
):
    # as above, at k = 4 and n = 6 (data files of 4 and 12 MiB): with f1 lost, or
    # damaged, which a first pass finds and a second rebuilds, and with f1 left out of
    # join --frags; reading the whole set, as each command once did, would add the
    # 48 MiB or more between them
    env = {**os.environ, "PYTHONPATH": str(Path(kfrag.__file__).resolve().parent.parent)}
    peaks = {}
    for mib in (16, 48):
        where = tmp_path / str(mib)
        where.mkdir()
        payload = os.urandom(mib << 20)
        (where / "in.bin").write_bytes(payload)
        out = where / "frags"
        _invoke(runner, "split", "--in", str(where / "in.bin"), "--out", str(out), "--n", "6")
        sites = _disperse(runner, where, out)
        f1 = [out / "f1.kfrg", _stored(where, "f1.kfrg")]
        original = f1[0].read_bytes()
        for fault, damage, line in (("lost", Path.unlink, b"missing"),
                                    ("damaged", _flip, b"digest mismatch")):
            for path in f1:
                damage(path)
            for name, command in (
                ("join", ["join", "--manifest", "frags/manifest.json", "--out", f"{fault}.bin"]),
                ("fetch", ["fetch", "--manifest", "frags/dispersal.json", "--sites", sites,
                           "--out", fault]),
            ):
                child = subprocess.run([sys.executable, "-c", _PEAK, *command], cwd=where,
                                       env=env, capture_output=True, timeout=120)
                assert child.returncode == 0, child.stderr
                assert b"f1.kfrg: " + line + b", rebuilt from parity" in child.stderr
                peaks[f"{name} {fault}", mib] = int(child.stdout.split()[-1]) << 10  # KiB
            assert (where / f"{fault}.bin").read_bytes() == payload
            assert (where / fault / "f1.kfrg").read_bytes() == original
            for path in f1:
                path.write_bytes(original)
        (out / "f1.kfrg").unlink()
        command = ["join", "--frags", *(f"frags/{n}" for n in ("f0.kfrg", "f2.kfrg", "f3.kfrg",
                                                              "p0.kpar")), "--out", "frags.bin"]
        child = subprocess.run([sys.executable, "-c", _PEAK, *command], cwd=where, env=env,
                               capture_output=True, timeout=120)
        assert child.returncode == 0, child.stderr
        peaks["join --frags", mib] = int(child.stdout.split()[-1]) << 10
        assert (where / "frags.bin").read_bytes() == payload
    for command in ("join lost", "fetch lost", "join damaged", "fetch damaged", "join --frags"):
        assert peaks[command, 48] - peaks[command, 16] < 8 << 20, peaks


def test_a_failed_write_names_its_target_not_its_temporary_file(runner, tmp_path):
    _, out = _split(runner, tmp_path, os.urandom(30_000))
    (tmp_path / "blocker").write_bytes(b"")
    result = runner.invoke(main, ["disperse", "--manifest", str(out / "manifest.json"),
                                  "--sites", f"{tmp_path / 's0'},{tmp_path / 's1'}",
                                  "--manifest-out", str(tmp_path / "blocker" / "dispersal.json")])
    assert result.exit_code == 3
    assert f"{Path('blocker', 'dispersal.json')}'" in result.stderr
    assert ".tmp" not in result.stderr
    assert not (tmp_path / "s0").exists() and not (tmp_path / "s1").exists()


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------


def _cycle_and_damage(runner, tmp_path, payload):
    """split -> disperse -> fetch -> join at k = 4, n = 6, then again on damaged files."""
    tmp_path.mkdir()
    src = tmp_path / "in.bin"
    src.write_bytes(payload)
    out = tmp_path / "frags"
    _invoke(runner, "split", "--in", str(src), "--out", str(out), "--n", "6")
    sites = _disperse(runner, tmp_path, out)
    fetched = tmp_path / "fetched"
    _invoke(runner, "fetch", "--manifest", str(out / "dispersal.json"),
            "--sites", sites, "--out", str(fetched))
    joined = tmp_path / "back.bin"
    _invoke(runner, "join", "--manifest", str(fetched / "manifest.json"),
            "--out", str(joined))
    clean = (
        [json.loads(m.read_text())["fragments"] for m in (out / "manifest.json",
                                                          out / "dispersal.json")],
        {p.name: p.read_bytes() for p in fetched.glob("f*.kfrg")},
        joined.read_bytes(),
    )
    for entry in clean[0][1]:
        entry["name"] = entry["name"].split("/")[-1]  # drop the random run id

    # two damaged files and a missing one, the first bad one in the second part
    for where in (out.joinpath, functools.partial(_stored, tmp_path)):
        _flip(where("f2.kfrg"))
        _flip(where("p1.kpar"))
        where("f3.kfrg").unlink()
    runs = [
        ["disperse", "--manifest", str(out / "manifest.json"),
         "--sites", ",".join(str(tmp_path / f"t{i}") for i in range(3))],
        ["fetch", "--manifest", str(out / "dispersal.json"), "--sites", sites,
         "--out", str(tmp_path / "again")],
        ["join", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "x.bin")],
    ]
    damaged = []
    for args in runs:
        result = runner.invoke(main, args, catch_exceptions=False)
        # the file names the error quotes, without directory or run id
        damaged.append((result.exit_code, re.findall(r"(\w+\.k\w+)'", result.output)))
    return clean, damaged


def test_file_reads_in_parts_give_the_bytes_and_errors_of_one_core(
    runner, tmp_path, monkeypatch
):
    payload = os.urandom(3 * gf256._PART_MIN_BYTES + 5)
    _seeded(monkeypatch, 4242)  # the same fragments on one core and on three
    monkeypatch.setattr(gf256, "_CORES", 1)
    one_core = _cycle_and_damage(runner, tmp_path / "one", payload)
    monkeypatch.setattr(gf256, "_CORES", 3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the parts as finely as possible
    try:
        in_parts = _cycle_and_damage(runner, tmp_path / "three", payload)
    finally:
        sys.setswitchinterval(switch)
    assert in_parts[0] == one_core[0]
    assert in_parts[0][2] == payload
    # f2 is the first bad entry in manifest order, so it decides every command
    assert in_parts[1] == one_core[1] == [(5, ["f2.kfrg"])] * 3


def test_a_file_rebuilt_beside_reads_in_parts_has_the_bytes_of_one_core(
    runner, tmp_path, monkeypatch
):
    # fetch reads each piece of the set in parts and join each segment, while the lost
    # file is made from them on this thread; on three cores, finely interleaved
    payload = os.urandom(3 * gf256._PART_MIN_BYTES + 5)
    monkeypatch.setattr(gf256, "_CORES", 3)
    _, out = _split(runner, tmp_path, payload, "--n", "6")
    sites = _disperse(runner, tmp_path, out)
    original = (out / "f1.kfrg").read_bytes()
    _stored(tmp_path, "f1.kfrg").unlink()
    (out / "f1.kfrg").unlink()
    fetched, joined = tmp_path / "fetched", tmp_path / "back.bin"
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _invoke(runner, "fetch", "--manifest", str(out / "dispersal.json"), "--sites", sites,
                "--out", str(fetched))
        _invoke(runner, "join", "--manifest", str(out / "manifest.json"), "--out", str(joined))
    finally:
        sys.setswitchinterval(switch)
    assert (fetched / "f1.kfrg").read_bytes() == original
    assert joined.read_bytes() == payload


def test_files_under_8_mib_are_read_on_the_callers_thread(runner, tmp_path, monkeypatch):
    class NoThreads:
        def Thread(self, *args, **kwargs):
            raise AssertionError("a thread was started")

    payload = os.urandom(2 * gf256._PART_MIN_BYTES - (64 << 10))
    monkeypatch.setattr(gf256, "_CORES", 3)
    monkeypatch.setattr(gf256, "threading", NoThreads())
    # the decode has a smaller part minimum of its own; this test is about the files
    monkeypatch.setattr(codec, "_DECODE_PART_MIN_BYTES", gf256._PART_MIN_BYTES)
    _, out = _split(runner, tmp_path, payload)
    sites = f"{tmp_path / 's0'},{tmp_path / 's1'}"
    _invoke(runner, "disperse", "--manifest", str(out / "manifest.json"), "--sites", sites)
    fetched = tmp_path / "fetched"
    _invoke(runner, "fetch", "--manifest", str(out / "dispersal.json"),
            "--sites", sites, "--out", str(fetched))
    joined = tmp_path / "back.bin"
    _invoke(runner, "join", "--manifest", str(fetched / "manifest.json"),
            "--out", str(joined))
    assert joined.read_bytes() == payload
