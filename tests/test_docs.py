"""Documentation consistency: the front door must track the code.

Mirrors ``tools/check_docs.py`` so drift fails the tier-1 suite, plus a
few content checks the script doesn't enforce.
"""

from __future__ import annotations

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines import available_models
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

#: a ``REPRO_*`` environment-variable name (``REPRO_*`` globs excluded)
ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")

#: a backticked dotted path into the package, as README.md and docs/
#: write them (```repro.data.chunked```)
DOC_PATH = re.compile(r"`(repro(?:\.\w+)+)`")

#: an absolute Sphinx cross-reference into the package in a docstring
XREF = re.compile(
    r":(?:class|func|mod|meth|data|attr|exc):`~?(repro(?:\.\w+)+)`")


@pytest.fixture(scope="module")
def readme() -> str:
    return (ROOT / "README.md").read_text()


def subcommands() -> list[str]:
    import argparse
    parser = build_parser()
    subparsers = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return sorted(subparsers[0].choices)


class TestReadme:
    def test_every_cli_subcommand_documented(self, readme):
        for command in subcommands():
            assert f"`{command}`" in readme, (
                f"README.md must document the {command!r} subcommand")

    def test_all_sixteen_models_in_registry_table(self, readme):
        for name in available_models():
            assert re.search(rf"\|\s*\*{{0,2}}{re.escape(name)}\*{{0,2}}\s*\|",
                             readme), f"{name} missing from registry table"

    def test_capability_flags_match_code(self, readme):
        from repro.baselines import create_model  # noqa: F401 (import check)
        from repro.baselines.registry import MODEL_FAMILIES
        for name, (cls, family) in MODEL_FAMILIES.items():
            row = re.search(rf"\|\s*\*{{0,2}}{re.escape(name)}\*{{0,2}}\s*\|"
                            r"([^\n]*)", readme)
            assert row, name
            cells = [cell.strip() for cell in row.group(1).split("|")]
            assert cells[0] == family, f"{name}: family drifted"
            assert (cells[1] == "✓") == cls.uses_kg, f"{name}: uses_kg"
            assert (cells[2] == "✓") == cls.uses_modalities, \
                f"{name}: uses_modalities"

    def test_benchmark_harnesses_listed(self, readme):
        for harness in sorted(
                p.name for p in (ROOT / "benchmarks").glob("test_*.py")):
            assert harness in readme, f"{harness} missing from README"


class TestDocsTree:
    def test_architecture_and_reproducing_exist(self):
        assert (ROOT / "docs" / "ARCHITECTURE.md").exists()
        assert (ROOT / "docs" / "REPRODUCING.md").exists()

    def test_reproducing_covers_every_results_file(self):
        text = (ROOT / "docs" / "REPRODUCING.md").read_text()
        for result in sorted(p.name for p in (ROOT / "results").glob("*.txt")):
            assert result in text, (
                f"docs/REPRODUCING.md must mention results/{result}")

    def test_check_docs_script_passes(self):
        import os
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_docs.py")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr


def env_vars(paths) -> set[str]:
    return {name for path in paths
            for name in ENV_VAR.findall(path.read_text())}


class TestEnvironmentVariables:
    """Every ``REPRO_*`` switch the code reads is documented, and the
    docs name no switch the code no longer reads."""

    @pytest.fixture(scope="class")
    def in_code(self) -> set[str]:
        return env_vars((ROOT / "src").rglob("*.py"))

    @pytest.fixture(scope="class")
    def in_docs(self) -> set[str]:
        return env_vars([ROOT / "README.md",
                         *(ROOT / "docs").glob("*.md")])

    def test_every_variable_read_under_src_is_documented(self, in_code,
                                                          in_docs):
        assert in_code - in_docs == set(), (
            "undocumented REPRO_* variables: name them in README.md or "
            "docs/")

    def test_every_documented_variable_is_read_under_src(self, in_code,
                                                         in_docs):
        assert in_docs - in_code == set(), (
            "README.md or docs/ name REPRO_* variables nothing under "
            "src/ reads")


def resolves(path: str) -> bool:
    """Whether ``path`` names something: import its longest module
    prefix, then ``getattr`` the remaining names."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def unresolved(files, pattern) -> list[str]:
    references = [(path, match) for path in files
                  for match in pattern.findall(path.read_text())]
    assert references, f"no reference matches {pattern.pattern!r}"
    return [f"{path.relative_to(ROOT)}: {name}"
            for path, name in references if not resolves(name)]


class TestReferences:
    """Every ``repro.…`` path the docs name, and every absolute
    cross-reference in a docstring, resolves: deleting or renaming a
    name leaves no stale reference behind."""

    def test_markdown_paths_resolve(self):
        files = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
        assert unresolved(files, DOC_PATH) == []

    def test_docstring_cross_references_resolve(self):
        files = sorted((ROOT / "src").rglob("*.py"))
        assert unresolved(files, XREF) == []
