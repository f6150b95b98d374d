#!/usr/bin/env python
"""Docs consistency check: every CLI subcommand must be documented.

Run from the repository root (CI does)::

    PYTHONPATH=src python tools/check_docs.py

Fails (exit 1) if a ``python -m repro`` subcommand is missing from
README.md or from the CLI module docstring, if a ``bench`` subcommand is
not named there as ``bench <name>``, or if a doc file the README links
to does not exist.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = [action for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)]
    return action.choices


def cli_subcommands() -> list[str]:
    from repro.cli import build_parser
    return sorted(subcommands(build_parser()))


def bench_subcommands() -> list[str]:
    from repro.cli import build_parser
    return sorted(subcommands(subcommands(build_parser())["bench"]))


def main() -> int:
    failures = []
    readme = (ROOT / "README.md").read_text()
    import repro.cli
    cli_doc = repro.cli.__doc__ or ""
    for command in cli_subcommands():
        if f"`{command}`" not in readme:
            failures.append(f"README.md does not document the "
                            f"{command!r} subcommand")
        if f"``{command}``" not in cli_doc:
            failures.append(f"repro/cli.py docstring does not list the "
                            f"{command!r} subcommand")
    for name in bench_subcommands():
        for where, text in (("README.md", readme),
                            ("repro/cli.py docstring", cli_doc)):
            if f"bench {name}" not in text:
                failures.append(f"{where} does not name 'bench {name}'")
    for doc in ("docs/ARCHITECTURE.md", "docs/RELIABILITY.md",
                "docs/REPRODUCING.md", "docs/SCALING.md"):
        if not (ROOT / doc).exists():
            failures.append(f"{doc} is missing")

    if failures:
        for failure in failures:
            print(f"docs check: {failure}", file=sys.stderr)
        return 1
    print(f"docs check: OK ({len(cli_subcommands())} subcommands "
          f"documented)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
