#!/usr/bin/env python3
"""Statistical comparison of fragment content across schemes.

Fragments deterministic text samples with every scheme, measures entropy,
chi-squared uniformity, bit difference, and pairwise correlation, and emits
per-scheme JSON reports plus recurrence/PDF pair lists for plotting.

Usage: python scripts/security_analysis.py [--out results] [--samples 3]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kfrag import analysis, wire
from kfrag.cli import split
from kfrag.corpus import text_sample


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", type=Path)
    parser.add_argument("--samples", default=3, type=int)
    parser.add_argument("--size", default=100_000, type=int)
    parser.add_argument("--k", default=4, type=int)
    parser.add_argument("--c", default=2, type=int)
    parser.add_argument("--block-size", default=34, type=int)
    parser.add_argument("--seed", default=0, type=int)
    args = parser.parse_args()
    # IDA and SSMS give the shortest fragments, ceil(size / k) bytes each
    min_size = (analysis.CHI2_MIN_SAMPLES - 1) * args.k + 1
    if args.size < min_size:
        parser.error(f"--size must be at least {min_size} at --k {args.k}, so that every "
                     f"fragment holds the {analysis.CHI2_MIN_SAMPLES} bytes chi-squared needs")

    args.out.mkdir(parents=True, exist_ok=True)
    params = {"k": args.k, "c": args.c, "block_size": args.block_size, "n": args.k}

    print(f"{'scheme':10s} {'sample':>6s} {'entropy':>9s} {'chi2':>9s} "
          f"{'chi2_pass':>9s} {'bit_diff':>9s}")
    for scheme_id in wire.SCHEMES:  # in the table's order, the proposed scheme first
        scheme = scheme_id.value
        for s in range(args.samples):
            data = text_sample(args.size, seed=args.seed + s)
            rng = random.Random(args.seed * 1000 + s)
            frags = split(scheme_id, data, args.k, args.k, args.c, args.block_size, rng)
            reports = analysis.analyze_fragments(frags, data)
            path = args.out / f"report_{scheme}_s{s}.json"
            analysis.write_report_json(path, scheme, params, reports)
            pairs = analysis.recurrence(analysis.measurable_bytes(frags[0]))
            analysis.write_recurrence_csv(args.out / f"recurrence_{scheme}_s{s}.csv", pairs)
            analysis.write_pdf_csv(args.out / f"pdf_{scheme}_s{s}.csv", reports[0])
            worst = max(reports, key=lambda r: r.chi2)
            print(f"{scheme:10s} {s:6d} {min(r.entropy for r in reports):9.4f} "
                  f"{worst.chi2:9.1f} {str(all(r.chi2_pass for r in reports)):>9s} "
                  f"{reports[0].bit_difference:9.4f}")
    print(f"\nreports and plot data written to {args.out}/")


if __name__ == "__main__":
    main()
