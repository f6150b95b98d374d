"""CI installs what each job runs.

A job that runs pytest on a clean runner must install it, and the
tier-1 job must install every third-party module ``tests/`` imports, or
collection fails before a single test runs. The workflow is read with
the standard library (CI has no PyYAML): only the ``jobs:`` keys and
each step's ``run:`` command (one line, or a ``>``/``|`` block) matter.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

_JOB = re.compile(r"  ([\w-]+):\s*$")
_RUN = re.compile(r"(\s*)(?:- )?run:\s*(.*)$")


def workflow_jobs(text: str) -> dict:
    """job name -> the ``run`` commands of its steps, in order."""
    jobs: dict = {}
    job = None
    in_jobs = False
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.strip():
            continue
        if not line.startswith(" "):
            in_jobs = line.rstrip() == "jobs:"
            continue
        if in_jobs and _JOB.fullmatch(line):
            job = _JOB.fullmatch(line).group(1)
            jobs[job] = []
            continue
        run = _RUN.match(line)
        if job is None or run is None:
            continue
        indent, command = len(run.group(1)), run.group(2).strip()
        if command[:1] in (">", "|"):
            block = []
            while i < len(lines) and (
                    not lines[i].strip()
                    or len(lines[i]) - len(lines[i].lstrip()) > indent):
                block.append(lines[i].strip())
                i += 1
            command = " ".join(part for part in block if part)
        jobs[job].append(command)
    return jobs


def installed(commands: list) -> set:
    """Packages the job's ``pip install`` commands name."""
    packages = set()
    for command in commands:
        words = command.split()
        for at, word in enumerate(words[:-1]):
            if word == "pip" and words[at + 1] == "install":
                packages.update(w for w in words[at + 2:]
                                if not w.startswith("-"))
    return packages


def runs_pytest(command: str) -> bool:
    return "-m pytest" in command


def runs_all_tests(command: str) -> bool:
    """A pytest run whose arguments include the whole ``tests`` tree."""
    if not runs_pytest(command):
        return False
    arguments = command.split("-m pytest", 1)[1].split()
    return "tests" in arguments or "tests/" in arguments


def third_party_imports(root: Path) -> set:
    """Top-level modules the files under ``root`` import that are
    neither the standard library, ``repro``, nor a module of ``root``
    itself. Import names equal distribution names for all of them."""
    local = {path.stem for path in root.rglob("*.py")}
    local |= {path.name for path in root.rglob("*") if path.is_dir()}
    modules = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return {m for m in modules
            if m not in sys.stdlib_module_names and m != "repro"
            and m not in local}


JOBS = workflow_jobs(WORKFLOW.read_text())


def test_parser_sees_the_workflow():
    assert {"tests", "golden", "chaos-smoke"} <= set(JOBS)
    assert all(JOBS.values()), "a job with no run command"


def test_every_pytest_job_installs_pytest():
    missing = [job for job, commands in JOBS.items()
               if any(runs_pytest(c) for c in commands)
               and "pytest" not in installed(commands)]
    assert not missing, f"jobs run pytest without installing it: {missing}"


def test_tier1_job_installs_what_tests_import():
    needed = third_party_imports(ROOT / "tests")
    assert {"numpy", "scipy", "pytest"} <= needed
    tier1 = [job for job, commands in JOBS.items()
             if any(runs_all_tests(c) for c in commands)]
    assert tier1, "no job runs all of tests/"
    for job in tier1:
        missing = needed - installed(JOBS[job])
        assert not missing, f"job {job!r} does not install {missing}"
