#!/usr/bin/env python
"""Regenerate the committed golden training fingerprints.

Usage (from the repo root)::

    PYTHONPATH=src python tools/update_goldens.py [MODEL ...]

Retrains every golden-roster model (or just the named ones) under the
frozen protocol in ``tests/golden/protocol.py`` and rewrites the
``tests/golden/<model>.json`` files. Run this ONLY when a training-
trajectory change is intentional — a deliberate change to model math,
sampling, initialization, or the update schedule — and say so in the
commit that includes the new files. If previously stored experiment
artifacts are now stale, bump ``PIPELINE_VERSION`` in
``src/repro/experiments/spec.py`` in the same commit (see
``docs/TESTING.md``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "golden"))

import protocol  # noqa: E402  (tests/golden/protocol.py)

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


def update(models: list[str]) -> int:
    for name in models:
        if name not in protocol.MODELS:
            print(f"unknown golden model {name!r}; roster: "
                  f"{', '.join(protocol.MODELS)}", file=sys.stderr)
            return 2
    for name in models:
        fingerprint = protocol.golden_fingerprint(name)
        payload = {
            "model": name,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "fingerprint": fingerprint,
        }
        path = GOLDEN_DIR / f"{name}.json"
        previous = None
        if path.exists():
            previous = json.loads(path.read_text())["fingerprint"]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")
        changed = previous is None or previous != fingerprint
        print(f"{name}: {'updated' if changed else 'unchanged'} "
              f"combined={fingerprint['combined'][:16]}...")
    return 0


if __name__ == "__main__":
    names = sys.argv[1:] or list(protocol.MODELS)
    raise SystemExit(update(names))
