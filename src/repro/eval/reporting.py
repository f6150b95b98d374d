"""The result writer every rendered table goes through."""

from __future__ import annotations

from pathlib import Path


def write_text_result(path: str | Path, text: str) -> Path:
    """The single entry point every rendered result goes through.

    Guarantees parent directories exist and the file ends with exactly
    one trailing newline — the benchmark harnesses and ``repro bench
    scaling --scaling-out`` both write results here, so the on-disk byte
    format cannot drift between them.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text.rstrip("\n") + "\n")
    return path
