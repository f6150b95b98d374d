#!/usr/bin/env python
"""Scale smoke check: bounded-memory out-of-core builds, with parity.

Usage (from the repo root, with ``PYTHONPATH=src``)::

    python tools/check_scale.py [--num-users 60000] [--num-items 50000] \
        [--rss-ceiling-mb 600] [--growth-mb 192] [--seed 0]

The CI scale-smoke job drives three assertions, each measured in a
dedicated subprocess (:mod:`repro.analysis.scale_probe`) so every peak
RSS is an honest per-build high-water mark:

1. **Ceiling** — a chunked build of a million-interaction world stays
   under ``--rss-ceiling-mb`` (the in-RAM reference needs roughly twice
   the chunked peak at this size, so the ceiling is meaningful).
2. **Boundedness** — doubling the catalog size must not move the
   chunked build's peak RSS by more than ``--growth-mb``; if peak
   memory scaled with the catalog, the out-of-core claim would be
   false even under a generous ceiling.
3. **Parity** — at a small size, the in-RAM reference and two chunked
   builds at different (coprime) chunk sizes all produce the same
   dataset fingerprint: chunking is an execution strategy, never a
   semantic one.

Exit status: 0 when all assertions hold, 1 on any failure.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-users", type=int, default=60000,
                        help="full-scale user count (the half-scale "
                             "probe uses num_users // 2)")
    parser.add_argument("--num-items", type=int, default=50000)
    parser.add_argument("--min-interactions", type=int, default=1_000_000,
                        help="the full-scale build must keep at least "
                             "this many interactions after k-core")
    parser.add_argument("--rss-ceiling-mb", type=float, default=600.0,
                        help="hard peak-RSS ceiling for the full-scale "
                             "chunked build")
    parser.add_argument("--growth-mb", type=float, default=192.0,
                        help="max allowed chunked peak-RSS increase "
                             "from half-scale to full-scale")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.analysis.scale_probe import run_probe
    from repro.data.chunked import DEFAULT_CHUNK_ROWS
    failures: list[str] = []

    full = run_probe(["--size", "medium", "--seed", args.seed,
                      "--num-users", args.num_users,
                      "--num-items", args.num_items,
                      "--chunk-rows", DEFAULT_CHUNK_ROWS])
    print(f"full scale  ({args.num_users}x{args.num_items}, chunked): "
          f"{full['interactions']:,} interactions, "
          f"peak RSS {full['maxrss_mb']:.1f} MB, "
          f"{full['seconds']:.1f}s, fingerprint {full['fingerprint']}")
    if full["interactions"] < args.min_interactions:
        failures.append(
            f"full-scale build kept only {full['interactions']:,} "
            f"interactions, below the --min-interactions floor of "
            f"{args.min_interactions:,}")
    if full["maxrss_mb"] > args.rss_ceiling_mb:
        failures.append(
            f"full-scale chunked build peaked at "
            f"{full['maxrss_mb']:.1f} MB, above the --rss-ceiling-mb "
            f"of {args.rss_ceiling_mb:.0f}")

    half = run_probe(["--size", "medium", "--seed", args.seed,
                      "--num-users", args.num_users // 2,
                      "--num-items", args.num_items // 2,
                      "--chunk-rows", DEFAULT_CHUNK_ROWS])
    growth = full["maxrss_mb"] - half["maxrss_mb"]
    print(f"half scale  ({args.num_users // 2}x{args.num_items // 2}, "
          f"chunked): {half['interactions']:,} interactions, "
          f"peak RSS {half['maxrss_mb']:.1f} MB "
          f"(full - half = {growth:+.1f} MB)")
    if growth > args.growth_mb:
        failures.append(
            f"chunked peak RSS grew {growth:.1f} MB from half- to "
            f"full-scale, above the --growth-mb bound of "
            f"{args.growth_mb:.0f} — peak memory is scaling with the "
            "catalog, not the chunk size")

    parity = {}
    for label, extra in (("in-RAM", []),
                         ("chunked(4096)", ["--chunk-rows", 4096]),
                         ("chunked(4099)", ["--chunk-rows", 4099])):
        report = run_probe(["--size", "tiny", "--seed", args.seed, *extra])
        parity[label] = report["fingerprint"]
    print("parity      (tiny): " + ", ".join(
        f"{label}={fp}" for label, fp in parity.items()))
    if len(set(parity.values())) > 1:
        failures.append(
            f"chunked builds are not bit-identical to the in-RAM "
            f"reference: {parity}")

    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(f"scale smoke OK: {full['interactions']:,}-interaction "
          f"chunked build peaked at {full['maxrss_mb']:.1f} MB "
          f"(ceiling {args.rss_ceiling_mb:.0f}), half->full growth "
          f"{growth:+.1f} MB (bound {args.growth_mb:.0f}), and all "
          "parity fingerprints matched")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
