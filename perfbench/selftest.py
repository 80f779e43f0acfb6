#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once, untraced and traced, on tiny payloads and checks
that every operation passes, that every metric named in BENCHMARK.json is
reported, and that the traced byte counts repeat exactly.  Then it shows that
a flipped byte in a stored fragment and a truncated output file each come
back as failed operations, not as passes.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run as bench

KB = bench.KB
TINY = {
    # 600 KB still crosses the 508-row threshold, so bulk keeps the c=2 scan path
    "bulk": dict(min_size=600 * KB, max_size=600 * KB),
    "parity": dict(min_size=64 * KB, max_size=64 * KB),
    "small": dict(min_size=4 * KB, max_size=16 * KB, files=3),
}
WORK = bench.OUT / "selftest"


def _tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], **TINY[name])


def _measure(w: bench.Workload, trace: bool, tamper=None) -> dict:
    run = bench.run_workload(w, seed=7, seconds=0, trace=trace, tamper=tamper, work=WORK)
    return bench.report(run, seed=7, trace=trace)


def _flip_stored_byte(stage, where) -> None:
    if stage == "stored":
        (victim,) = where[0].glob("*/f0.kfrg")
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        victim.write_bytes(bytes(blob))


def _truncate_output(stage, where) -> None:
    if stage == "joined":
        with where.open("r+b") as fh:
            fh.truncate(where.stat().st_size - 1)


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []

    def check(cond: bool, what: str) -> None:
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    sys.path.insert(0, str(bench.SRC))
    os.environ.pop("FRAG_RNG_SEED", None)
    for name in bench.WORKLOADS:
        w = _tiny(name)
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = _measure(w, trace)
            label = f"{name} {'traced' if trace else 'untraced'}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: {result['attempted']} operations, {result['failed']} failed")
            names = {m["name"] for m in wanted}
            check(set(result["metrics"]) == names, f"{label}: reports exactly the listed metrics")
            if trace:
                again = _measure(w, trace)
                ratios = [m for m in names if m.endswith(("_ratio", "_calls"))]
                check(all(result["metrics"][m] == again["metrics"][m] for m in ratios),
                      f"{label}: byte ratios and call counts repeat exactly")
            else:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{label}: every end-to-end metric is above 0")

    w = _tiny("bulk")
    clean = _measure(w, False)
    # every cycle is tampered with; only the k-1 threshold probe still passes.
    # fetch rejects the flipped byte itself, while join's truncated output
    # passes as a success and only the benchmark's own digest catches it.
    for tamper, what, correct in ((_flip_stored_byte, "flipped byte in a stored fragment", True),
                                  (_truncate_output, "truncated output file", False)):
        result = _measure(w, False, tamper)
        check(result["failed"] == clean["attempted"] - 1 and result["correct"] is correct,
              f"{what}: {result['failed']} of {result['attempted']} operations failed, "
              f"correct {str(result['correct']).lower()}")
    print("self-test " + ("failed: " + "; ".join(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
