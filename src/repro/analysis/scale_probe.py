"""Single-build measurement probe: ``python -m repro.analysis.scale_probe``.

Builds one scale dataset (in-RAM reference, or chunked when
``--chunk-rows`` is given) and prints a one-line JSON report::

    {"seconds": ..., "maxrss_mb": ..., "interactions": ...,
     "num_users": ..., "num_items": ..., "fingerprint": ...}

Runs as a dedicated subprocess on purpose: ``ru_maxrss`` is a
process-lifetime high-water mark, so measuring several builds in one
process would report every build's RSS as the largest one's.
:func:`run_probe` launches one such subprocess; the scaling benchmark
(:func:`repro.analysis.timing.measure_build_scaling`, behind
``repro bench scaling``) and the CI memory-ceiling check
(``tools/check_scale.py``) both call it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """Process-lifetime peak resident set in MB (``ru_maxrss``).

    Monotonic per process (the kernel's high-water mark never resets),
    so per-build numbers that must not inherit earlier peaks come from
    :func:`run_probe` subprocesses."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    divisor = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return peak / divisor


def run_probe(args: list) -> dict:
    """Run this module in a fresh subprocess with ``args`` (stringified)
    and return its JSON report; raises ``RuntimeError`` if it fails."""
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.scale_probe",
         *[str(arg) for arg in args]],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"scale probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="build one scale dataset and report cost as JSON")
    parser.add_argument("--size", default="tiny",
                        help="scale size preset name")
    parser.add_argument("--num-users", type=int, default=None,
                        help="override the preset's user count")
    parser.add_argument("--num-items", type=int, default=None,
                        help="override the preset's item count")
    parser.add_argument("--chunk-rows", type=int, default=None,
                        help="chunked out-of-core build at this chunk "
                        "size (default: in-RAM reference build)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="publish the dataset here (chunked mode "
                        "only; default: a private temp dir)")
    args = parser.parse_args(argv)

    from repro.data.io import dataset_fingerprint
    from repro.data.scale import build_scale_dataset, scale_config

    overrides = {}
    if args.num_users is not None:
        overrides["num_users"] = args.num_users
    if args.num_items is not None:
        overrides["num_items"] = args.num_items
    config = scale_config(args.size, seed=args.seed, **overrides)

    start = time.perf_counter()
    dataset = build_scale_dataset(config, chunk_rows=args.chunk_rows,
                                  out=args.out)
    seconds = time.perf_counter() - start
    interactions = sum(
        len(getattr(dataset.split, name))
        for name in ("train", "warm_val", "warm_test", "cold_val",
                     "cold_test"))
    report = {
        "seconds": seconds,
        "maxrss_mb": peak_rss_mb(),
        "interactions": int(interactions),
        "num_users": config.num_users,
        "num_items": config.num_items,
        "chunk_rows": args.chunk_rows,
        "fingerprint": dataset_fingerprint(dataset),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
