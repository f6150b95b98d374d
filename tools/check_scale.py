#!/usr/bin/env python
"""Scale smoke check: block-bounded streamed builds, with parity.

Usage (from the repo root, with ``PYTHONPATH=src``)::

    python tools/check_scale.py [--num-users 60000] [--num-items 50000] \
        [--rss-ceiling-mb 150] [--growth-mb 40] [--seed 0]

The CI scale-smoke job drives three assertions, each measured in a
dedicated subprocess (:mod:`repro.analysis.scale_probe`) so every peak
RSS is an honest per-build high-water mark:

1. **Ceiling** — a streamed build of a million-interaction world stays
   under ``--rss-ceiling-mb`` (~83 MB streamed against ~173 MB for the
   in-RAM reference on a 2-vCPU host; the default sits between).
2. **Boundedness** — doubling the catalog size must not move the
   streamed build's peak RSS by more than ``--growth-mb`` (3-7 MB
   streamed against ~60 MB in RAM; the default sits between), so peak
   memory must track one generator block, not the catalog.
3. **Parity** — on a world of three user blocks and two item blocks,
   the in-RAM reference and the streamed build produce the same
   dataset fingerprint: per-block dedup and k-core concatenate to
   the global ones, so block boundaries never change a byte.

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
    parser.add_argument("--rss-ceiling-mb", type=float, default=150.0,
                        help="hard peak-RSS ceiling for the full-scale "
                             "streamed build")
    parser.add_argument("--growth-mb", type=float, default=40.0,
                        help="max allowed streamed peak-RSS increase "
                             "from half-scale to full-scale")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.analysis.scale_probe import run_probe
    failures: list[str] = []

    full = run_probe(["--size", "medium", "--seed", args.seed,
                      "--num-users", args.num_users,
                      "--num-items", args.num_items, "--streamed"])
    print(f"full scale  ({args.num_users}x{args.num_items}, streamed): "
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
            f"full-scale streamed build peaked at "
            f"{full['maxrss_mb']:.1f} MB, above the --rss-ceiling-mb "
            f"of {args.rss_ceiling_mb:.0f}")

    half = run_probe(["--size", "medium", "--seed", args.seed,
                      "--num-users", args.num_users // 2,
                      "--num-items", args.num_items // 2, "--streamed"])
    growth = full["maxrss_mb"] - half["maxrss_mb"]
    print(f"half scale  ({args.num_users // 2}x{args.num_items // 2}, "
          f"streamed): {half['interactions']:,} interactions, "
          f"peak RSS {half['maxrss_mb']:.1f} MB "
          f"(full - half = {growth:+.1f} MB)")
    if growth > args.growth_mb:
        failures.append(
            f"streamed peak RSS grew {growth:.1f} MB from half- to "
            f"full-scale, above the --growth-mb bound of "
            f"{args.growth_mb:.0f} — peak memory is scaling with the "
            "catalog, not the generator block")

    # three user blocks (4,096 users each) and two item blocks (8,192
    # items each), so the streamed build dedups and k-cores per block
    users, items = 2 * 4096 + 50, 8192 + 100
    world = ["--size", "tiny", "--seed", args.seed,
             "--num-users", users, "--num-items", items]
    parity = {label: run_probe([*world, *extra])["fingerprint"]
              for label, extra in (("in-RAM", []),
                                   ("streamed", ["--streamed"]))}
    print(f"parity      ({users}x{items}): " + ", ".join(
        f"{label}={fp}" for label, fp in parity.items()))
    if len(set(parity.values())) > 1:
        failures.append(
            f"the streamed build is not bit-identical to the in-RAM "
            f"reference: {parity}")

    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(f"scale smoke OK: {full['interactions']:,}-interaction "
          f"streamed build peaked at {full['maxrss_mb']:.1f} MB "
          f"(ceiling {args.rss_ceiling_mb:.0f}), half->full growth "
          f"{growth:+.1f} MB (bound {args.growth_mb:.0f}), and the "
          "streamed build matched the in-RAM fingerprint")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
