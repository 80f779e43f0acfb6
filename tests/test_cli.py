import hashlib
import json
import os

import pytest
from click.testing import CliRunner

from kfrag.cli import main
from kfrag.corpus import text_sample


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, *args, code=0, env=None):
    result = runner.invoke(main, list(args), env=env, catch_exceptions=False)
    assert result.exit_code == code, (args, result.exit_code, result.output)
    return result


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
    result = _invoke(runner, "bench", "--grid", "4,0,250", code=2)
    assert "c must be at least 2" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["join", "disperse", "fetch"])
@pytest.mark.parametrize(
    "content",
    ["not json", '{"scheme": "proposed"}', '{"scheme": "proposed", "k": "4"}'],
    ids=["not-json", "no-k", "k-not-int"],
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
    (out / "f3.kfrg").unlink()
    joined = tmp_path / "back.bin"
    _invoke(runner, "join", "--manifest", str(out / "manifest.json"),
            "--out", str(joined))
    assert joined.read_bytes() == payload


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


def test_analyze_writes_report_and_summary(runner, tmp_path):
    src = tmp_path / "text.bin"
    src.write_bytes(text_sample(100_000, seed=77))
    report = tmp_path / "report.json"
    # seeded permutations: uniform fragments still fail chi-squared at alpha = 0.05
    # about one draw in ten, and this draw passes
    result = _invoke(
        runner, "analyze", "--in", str(src), "--scheme", "proposed",
        "--k", "2", "--c", "2", "--block-size", "34", "--report", str(report),
        env={"FRAG_RNG_SEED": "31337"},
    )
    doc = json.loads(report.read_text())
    assert doc["scheme"] == "proposed"
    assert len(doc["fragments"]) == 2
    assert "summary: 2/2 fragments pass chi-squared" in result.output


def test_analyze_ida_on_periodic_text_fails_chi2(runner, tmp_path):
    from kfrag.corpus import periodic_sample

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


def test_seeded_splits_are_bit_identical(runner, tmp_path):
    payload = os.urandom(4096)
    env = {"FRAG_RNG_SEED": "31337"}
    src = tmp_path / "in.bin"
    src.write_bytes(payload)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        _invoke(runner, "split", "--in", str(src), "--out", str(out),
                "--k", "2", "--c", "2", "--block-size", "16", env=env)
        outs.append(out)
    for fname in ("f0.kfrg", "f1.kfrg"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    # and a fresh unseeded split differs with overwhelming probability
    out = tmp_path / "c"
    _invoke(runner, "split", "--in", str(src), "--out", str(out),
            "--k", "2", "--c", "2", "--block-size", "16")
    assert (out / "f0.kfrg").read_bytes() != (outs[0] / "f0.kfrg").read_bytes()
