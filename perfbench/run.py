#!/usr/bin/env python3
"""Protect/recover benchmark for the kfrag command line.

One run measures one workload: a closed loop with one client, in one process
and one thread.  Every ``kfrag`` command is invoked in-process through
``kfrag.cli.main`` on payloads generated from ``--seed``; a round is one
split -> disperse -> fetch -> join cycle per payload of the workload, and a
run repeats whole rounds until ``--seconds`` have passed.  Fresh child
processes run one at a time, only to time the import of ``kfrag.cli``
(``setup_s``) and to read each command's peak RSS from its own rusage.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced run with ``--trace 1``.  Raw cycle timings
and the spans of a traced run are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MB = 1 << 20
KB = 1 << 10
SETUP_AT_START = 3
SETUP_SPREAD = 12  # further set-up samples, one per 1/12 of the run
EXIT_THRESHOLD = 4
HEADER_SIZE = 22  # documented wire header: >4sBHBHHQBB


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    c: int
    block_size: int
    n: int  # n > k puts n - k parity rows on one extra site
    min_size: int
    max_size: int
    files: int  # payloads per round, log-uniform in [min_size, max_size]
    drop_one: bool  # delete one stored data fragment before each recover

    @property
    def sites(self) -> int:
        return self.c + (1 if self.n > self.k else 0)


WORKLOADS = {
    "bulk": Workload("bulk", k=4, c=2, block_size=250, n=4,
                     min_size=32 * MB, max_size=32 * MB, files=1, drop_one=False),
    "parity": Workload("parity", k=6, c=3, block_size=250, n=8,
                       min_size=8 * MB, max_size=8 * MB, files=1, drop_one=True),
    "small": Workload("small", k=4, c=2, block_size=250, n=4,
                      min_size=4 * KB, max_size=256 * KB, files=48, drop_one=False),
}


@dataclass(frozen=True)
class Payload:
    path: Path
    size: int
    sha256: str


@dataclass
class Result:
    code: int
    stdout: str
    seconds: float
    rss_mb: float | None = None


@dataclass
class Outcome:
    """One operation: a full cycle, or the k-1 threshold probe."""

    size: int = 0
    protect_s: float = 0.0
    recover_s: float = 0.0
    stored_bytes: int = 0
    rss_mb: dict[str, float] = field(default_factory=dict)
    failure: str | None = None
    wrong: bool = False  # a command reported success but its output was wrong


class CycleFailed(Exception):
    def __init__(self, reason: str, wrong: bool):
        super().__init__(reason)
        self.wrong = wrong


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


class InProcess:
    """Runs one kfrag command through ``kfrag.cli.main`` in this process."""

    def __init__(self, rec=None):
        self.rec = rec

    def __call__(self, args: list[str]) -> Result:
        import click
        from kfrag import cli

        out = io.StringIO()
        span = self.rec.span(f"cli.{args[0]}") if self.rec else nullcontext()
        start = time.perf_counter()
        with span, redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                cli.main.main(args=args, prog_name="kfrag", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except click.ClickException as exc:
                code = exc.exit_code
        return Result(code, out.getvalue(), time.perf_counter() - start)


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FRAG_RNG_SEED", None)
    return env


# A child's ru_maxrss starts at its parent's high-water RSS (Linux carries it
# across fork and exec), so the command runs under a small launcher started
# from a fresh interpreter, and the launcher reports the command's rusage.
_LAUNCHER = """
import os, sys
argv = [sys.executable, "-m", "kfrag", *sys.argv[1:]]
quiet = [(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


class Child:
    """Runs one kfrag command in a fresh interpreter and reads its peak RSS."""

    def __call__(self, args: list[str]) -> Result:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _LAUNCHER, *args], capture_output=True,
                              text=True, env=_child_env(), cwd=ROOT)
        seconds = time.perf_counter() - start
        rss_kib = int(proc.stderr.split()[-1])  # ru_maxrss is in KiB on Linux
        return Result(proc.returncode, proc.stdout, seconds, rss_mb=rss_kib / KB)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing kfrag.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import kfrag.cli"], check=True, env=_child_env(),
                   cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# one cycle and its checks
# ---------------------------------------------------------------------------


def _ok(run, args: list[str]) -> Result:
    result = run(args)
    if result.code != 0:
        raise CycleFailed(f"{args[0]} exited with {result.code}", wrong=False)
    return result


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise CycleFailed(reason, wrong=True)


def fragment_size(w: Workload, payload_len: int) -> int:
    """Data fragment file: header + permutation share + u32 count + rows x block."""
    rows = -(-payload_len // (w.k * w.block_size))
    return HEADER_SIZE + w.block_size + 4 + rows * w.block_size


def parity_size(w: Workload, payload_len: int) -> int:
    """Parity file: header + u16 + k coefficients + u32 + one combined fragment file."""
    return HEADER_SIZE + 2 + w.k + 4 + fragment_size(w, payload_len)


def check_sites(w: Workload, site_dirs: list[Path], payload_len: int) -> int:
    """Placement and sizes of every stored object; returns their total size."""
    run_ids = set()
    total = 0
    for s, site in enumerate(site_dirs):
        if s < w.c:
            want = {f"f{j}.kfrg": fragment_size(w, payload_len) for j in range(w.k) if j % w.c == s}
        else:
            want = {f"p{r}.kpar": parity_size(w, payload_len) for r in range(w.n - w.k)}
        got = {}
        for path in site.rglob("*"):
            if path.is_file():
                rel = path.relative_to(site).parts
                _expect(len(rel) == 2, f"unexpected object {path.relative_to(site)} at site {s}")
                run_ids.add(rel[0])
                got[rel[1]] = path.stat().st_size
        _expect(got.keys() == want.keys(), f"site {s} holds {sorted(got)}, expected {sorted(want)}")
        _expect(got == want, f"object sizes at site {s} are {got}, expected {want}")
        total += sum(got.values())
    _expect(len(run_ids) == 1, f"objects of several runs stored: {sorted(run_ids)}")
    return total


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _split_args(w: Workload, payload: Payload, out_dir: Path, n: int) -> list[str]:
    return ["split", "--in", str(payload.path), "--k", str(w.k), "--c", str(w.c),
            "--block-size", str(w.block_size), "--n", str(n), "--out", str(out_dir)]


def cycle(run, w: Workload, payload: Payload, work: Path,
          drop: int | None = None, tamper=None) -> Outcome:
    """split -> disperse -> [drop one fragment] -> fetch -> join, then check."""
    out = Outcome(size=payload.size)
    split_dir, fetched, joined = work / "split", work / "fetched", work / "joined.bin"
    site_dirs = [work / f"site{s}" for s in range(w.sites)]
    spec = ",".join(str(d) for d in site_dirs)
    try:
        steps = [_ok(run, _split_args(w, payload, split_dir, w.n)),
                 _ok(run, ["disperse", "--manifest", str(split_dir / "manifest.json"),
                           "--sites", spec])]
        out.protect_s = sum(r.seconds for r in steps)
        out.stored_bytes = check_sites(w, site_dirs, payload.size)
        if tamper:
            tamper("stored", site_dirs)
        deleted = None
        if drop is not None:
            (victim,) = site_dirs[drop % w.c].glob(f"*/f{drop}.kfrg")
            deleted = victim.read_bytes()
            victim.unlink()
        steps += [_ok(run, ["fetch", "--manifest", str(split_dir / "dispersal.json"),
                            "--sites", spec, "--out", str(fetched)]),
                  _ok(run, ["join", "--manifest", str(fetched / "manifest.json"),
                            "--out", str(joined)])]
        out.recover_s = steps[2].seconds + steps[3].seconds
        out.rss_mb = {cmd: r.rss_mb for cmd, r in
                      zip(("split", "disperse", "fetch", "join"), steps) if r.rss_mb is not None}
        if tamper:
            tamper("joined", joined)
        printed = steps[3].stdout.split()
        _expect(bool(printed) and printed[-1] == payload.sha256,
                "join printed a digest other than the input's")
        _expect(_sha256_file(joined) == payload.sha256, "joined file differs from the input")
        if deleted is not None:
            _expect((fetched / f"f{drop}.kfrg").read_bytes() == deleted,
                    f"rebuilt fragment f{drop} differs from the deleted one")
    except CycleFailed as exc:
        out.failure, out.wrong = str(exc), exc.wrong
    return out


def threshold_probe(run, w: Workload, payload: Payload, work: Path) -> Outcome:
    """A join given k-1 data fragments and no parity must exit with code 4."""
    out = Outcome()
    split_dir = work / "probe"
    result = run(_split_args(w, payload, split_dir, w.k))
    if result.code != 0:
        out.failure = f"split exited with {result.code}"
        return out
    frags = [str(split_dir / f"f{j}.kfrg") for j in range(w.k - 1)]
    result = run(["join", "--frags", *frags, "--out", str(work / "short.bin")])
    if result.code != EXIT_THRESHOLD:
        out.failure = f"join of k-1 fragments exited with {result.code}, expected {EXIT_THRESHOLD}"
        out.wrong = result.code == 0
    return out


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------


def make_payloads(w: Workload, seed: int, where: Path) -> list[Payload]:
    """Random payloads; the same seed gives the same sizes and bytes.

    Sizes are log-uniform, stratified: payload i draws from the i-th of
    ``files`` equal slices of [log min_size, log max_size], so a round's
    total size, and with it the share of fixed per-command cost, barely
    depends on the seed.
    """
    import numpy as np

    gen = np.random.default_rng(seed)
    where.mkdir(parents=True, exist_ok=True)
    lo, hi = math.log(w.min_size), math.log(w.max_size)
    slices = (np.arange(w.files) + gen.random(w.files)) / w.files
    sizes = [int(round(math.exp(lo + (hi - lo) * u))) for u in gen.permutation(slices)]
    out = []
    for i, size in enumerate(sizes):
        data = gen.bytes(size)
        path = where / f"in{i}.bin"
        path.write_bytes(data)
        out.append(Payload(path, size, hashlib.sha256(data).hexdigest()))
    return out


@dataclass
class Run:
    """Everything one run measured, kept for the report and the raw output."""

    workload: Workload
    setup_s: list[float]
    rss: Outcome
    rounds: list[list[Outcome]]
    extra: list[Outcome]  # warm-up round and the threshold probe
    rec: object = None

    @property
    def operations(self) -> list[Outcome]:
        return [o for r in self.rounds for o in r] + self.extra + [self.rss]

    @property
    def timed(self) -> list[Outcome]:
        return [o for r in self.rounds for o in r if o.failure is None]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 tamper=None, work: Path | None = None) -> Run:
    from tracing import Recorder, installed

    work = work or OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        payloads = make_payloads(w, seed, work / "inputs")
        drops = random.Random(seed)

        def one(run, payload):
            drop = drops.randrange(w.k) if w.drop_one else None
            try:
                return cycle(run, w, payload, work / "cycle", drop, tamper)
            finally:
                shutil.rmtree(work / "cycle", ignore_errors=True)

        import_seconds()  # compiles the bytecode caches; not a sample
        setup = [import_seconds() for _ in range(SETUP_AT_START)]
        extra = [one(InProcess(), p) for p in payloads]  # warm-up round, untimed
        extra.append(threshold_probe(InProcess(), w, payloads[0], work / "cycle"))
        shutil.rmtree(work / "cycle", ignore_errors=True)
        rss = one(Child(), max(payloads, key=lambda p: p.size))

        rec = Recorder() if trace else None
        runner = InProcess(rec)
        rounds = []
        with installed(rec) if rec else nullcontext():
            start = last_setup = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                rounds.append([one(runner, p) for p in payloads])
                # set-up samples spread over the run, between rounds
                if time.perf_counter() - last_setup >= seconds / SETUP_SPREAD:
                    setup.append(import_seconds())
                    last_setup = time.perf_counter()
        return Run(w, setup, rss, rounds, extra, rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _rate(outcomes: list[Outcome], attr: str) -> float:
    """Payload MiB over the summed command wall time, across the whole run."""
    seconds = sum(getattr(o, attr) for o in outcomes)
    return sum(o.size for o in outcomes) / MB / seconds if seconds > 0 else 0.0


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    timed = run.timed
    payload = sum(o.size for o in timed)
    rss = run.rss.rss_mb
    return {
        "protect_mb_s": (_rate(timed, "protect_s"), "MB/s"),
        "recover_mb_s": (_rate(timed, "recover_s"), "MB/s"),
        "protect_peak_rss_mb": (max(rss.get("split", 0.0), rss.get("disperse", 0.0)), "MB"),
        "recover_peak_rss_mb": (max(rss.get("fetch", 0.0), rss.get("join", 0.0)), "MB"),
        "stored_bytes_ratio": (sum(o.stored_bytes for o in timed) / payload if payload else 0.0,
                               "B/B"),
        "setup_s": (statistics.median(run.setup_s), "s"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    rec = run.rec
    timed = run.timed
    cycles = len(timed) or 1
    payload = sum(o.size for o in timed) or 1
    own = rec.self_times()
    whole = rec.inclusive_times()

    def rate(name):
        return rec.bytes[name] / MB / own[name] if own[name] > 0 else 0.0

    def per_cycle(*names):
        return sum(own[n] for n in names) / cycles

    def ratio(name):
        return rec.bytes[name] / payload

    commands = ("split", "disperse", "fetch", "join")
    out = {
        "codec.encode_mb_s": (rate("codec.encode"), "MB/s"),
        "codec.decode_mb_s": (rate("codec.decode"), "MB/s"),
        "erasure.encode_mb_s": (rate("erasure.encode"), "MB/s"),
        "erasure.decode_mb_s": (rate("erasure.decode"), "MB/s"),
        "permutation.generate_s": (per_cycle("permutation.generate", "permutation.split"), "s"),
        "permutation.reconstruct_s": (per_cycle("permutation.reconstruct"), "s"),
        "wire.dump_s": (per_cycle("wire.dump"), "s"),
        "wire.load_s": (per_cycle("wire.load"), "s"),
        "wire.dumped_bytes_ratio": (ratio("wire.dump"), "B/B"),
        "wire.loaded_bytes_ratio": (ratio("wire.load"), "B/B"),
        "digest.sha256_s": (per_cycle("digest.sha256"), "s"),
        "digest.sha256_bytes_ratio": (ratio("digest.sha256"), "B/B"),
        "digest.sha256_calls": (rec.calls["digest.sha256"] / cycles, "count"),
        "dispersal.store_s": (per_cycle("dispersal.store"), "s"),
        "dispersal.fetch_s": (per_cycle("dispersal.fetch"), "s"),
        "dispersal.put_bytes_ratio": (ratio("dispersal.put"), "B/B"),
        "dispersal.get_bytes_ratio": (ratio("dispersal.get"), "B/B"),
    }
    for cmd in commands:
        out[f"cli.{cmd}_s"] = (whole[f"cli.{cmd}"] / cycles, "s")
    out["cli.self_s"] = (per_cycle(*(f"cli.{cmd}" for cmd in commands)), "s")
    for cmd in commands:
        out[f"cli.{cmd}_peak_rss_mb"] = (run.rss.rss_mb.get(cmd, 0.0), "MB")
    out["traced.protect_mb_s"] = (_rate(timed, "protect_s"), "MB/s")
    out["traced.recover_mb_s"] = (_rate(timed, "recover_s"), "MB/s")
    return out


def report(run: Run, seed: int, trace: bool) -> dict:
    ops = run.operations
    metrics = per_layer(run) if trace else end_to_end(run)
    stem = f"{run.workload.name}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(parents=True, exist_ok=True)
    raw = {
        "workload": run.workload.name,
        "seed": seed,
        "setup_s": run.setup_s,
        "rss_mb": run.rss.rss_mb,
        "rounds": [[{"size": o.size, "protect_s": o.protect_s, "recover_s": o.recover_s,
                     "failure": o.failure} for o in r] for r in run.rounds],
        "failures": [o.failure for o in ops if o.failure],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(raw))
    if trace:
        run.rec.write(OUT / f"{stem}-spans.jsonl")
    return {
        "correct": not any(o.wrong for o in ops),
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o.failure),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _print_summary(name: str, result: dict) -> None:
    print(f"workload {name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<28} {m['value']:>14.6g} {m['unit']}")


def _run_all(args) -> dict:
    """Each workload in its own interpreter, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kfrag" / "cli.py").is_file():
        print(f"error: the kfrag sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = _run_all(args)
    else:
        sys.path.insert(0, str(SRC))
        os.environ.pop("FRAG_RNG_SEED", None)
        run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        result = report(run, args.seed, bool(args.trace))
        _print_summary(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
