"""Seeded fault plans and the ``fire()`` injection seam.

A :class:`FaultSpec` names one scripted fault: an ``op`` pattern
(matched with :func:`fnmatch.fnmatch` against seam names such as
``store.v2.write`` or ``daemon.batch``), the 1-based call index ``at``
at which it starts firing, how many consecutive matching calls it
covers (``times``, ``-1`` = every call from ``at`` on), and a ``kind``:

``error``
    raise :class:`InjectedError` (an ``OSError`` — the transient-fault
    class retries cover);
``timeout``
    raise :class:`InjectedTimeout` (a ``TimeoutError``);
``slow``
    sleep ``delay_ms`` then continue (builds real queue backlog);
``crash``
    raise :class:`InjectedCrash` — a ``BaseException`` so ordinary
    ``except Exception`` recovery code cannot swallow the simulated
    kill (the same contract as ``KeyboardInterrupt``);
``torn``
    mangle the file/directory at the seam's ``path`` the way a
    mid-write kill would (truncate a file; drop a directory's
    manifest), then raise :class:`InjectedCrash`;
``corrupt``
    silently flip one byte of the seam's ``path`` and continue — the
    bit-rot case content-hash verification must catch.

A :class:`FaultPlan` is an ordered list of specs plus a seed. All
firing decisions are pure functions of (seed, per-op call counters), so
the same plan replayed over the same operation sequence fires the
identical faults — ``plan.events`` records the sequence and two runs
with the same seed produce equal logs. Plans serialize to JSON
(``to_json`` / ``from_json`` / ``load``) so a chaos scenario is one
committable file.

Activation is process-global (guarded by a lock, usable from the
daemon's worker threads): ``with inject(plan): ...``, which is how
``tools/check_chaos.py`` and the tests install their plans.
When no plan is active, :func:`fire` is one global read — the seams
cost nothing in production.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import asdict, dataclass
from fnmatch import fnmatch
from pathlib import Path

KINDS = ("error", "timeout", "slow", "crash", "torn", "corrupt")


class InjectedFault(Exception):
    """Mixin/base marking an exception as fault-plan-injected."""


class InjectedError(InjectedFault, OSError):
    """Injected transient I/O failure (retries treat it as any OSError)."""


class InjectedTimeout(InjectedFault, TimeoutError):
    """Injected timeout (retries treat it as any TimeoutError)."""


class InjectedCrash(BaseException):
    """Simulated process kill.

    Deliberately *not* an :class:`Exception`: recovery code that
    catches ``Exception`` (or cleans up in ``except``-blocks) must not
    be able to absorb a simulated kill — only the chaos harness that
    scripted it catches it, exactly like a test harness reaping a dead
    process. ``finally`` blocks still run (an in-process seam cannot
    suppress them), so seams that must leave kill-realistic state
    behind mangle it *before* raising (the ``torn`` kind).
    """


def is_injected_crash(exc: BaseException) -> bool:
    return isinstance(exc, InjectedCrash)


# ---------------------------------------------------------------------------
# file mangling: what a mid-write kill / bit rot leaves behind
# ---------------------------------------------------------------------------

def tear_file(path: str | Path, keep_fraction: float = 0.5) -> None:
    """Truncate ``path`` the way a kill mid-write would: keep a prefix.

    For a directory (a staged array directory or artifact dir) the manifest-like
    file is the torn part: drop ``manifest.json``/``meta.json`` if
    present, else truncate the lexically last file (the one written
    last).
    """
    path = Path(path)
    if path.is_dir():
        for name in ("manifest.json", "meta.json"):
            target = path / name
            if target.exists():
                target.unlink()
                return
        files = sorted(p for p in path.rglob("*") if p.is_file())
        if files:
            tear_file(files[-1], keep_fraction)
        return
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(max(int(size * keep_fraction), 1) if size else 0)


def flip_byte(path: str | Path, offset: int | None = None) -> None:
    """Flip one byte of ``path`` in place (silent corruption).

    For a directory, corrupt the first data file (sorted order,
    manifest/meta excluded) so content addressing — not manifest
    parsing — is what must catch it.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(
            p for p in path.rglob("*")
            if p.is_file() and p.name not in ("manifest.json", "meta.json"))
        if not files:
            return
        return flip_byte(files[0], offset)
    size = path.stat().st_size
    if size == 0:
        return
    at = (size // 2) if offset is None else (offset % size)
    with open(path, "r+b") as handle:
        handle.seek(at)
        byte = handle.read(1)
        handle.seek(at)
        handle.write(bytes([byte[0] ^ 0xFF]))


# ---------------------------------------------------------------------------
# specs and plans
# ---------------------------------------------------------------------------

@dataclass
class FaultSpec:
    """One scripted fault; see the module docstring for the kinds."""

    op: str
    kind: str
    at: int = 1
    times: int = 1
    delay_ms: float = 0.0
    keep_fraction: float = 0.5
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"allowed: {', '.join(KINDS)}")
        if self.at < 1:
            raise ValueError("'at' is a 1-based call index")
        if self.times == 0 or self.times < -1:
            raise ValueError("'times' must be positive or -1 (= forever)")

    def covers(self, call_index: int) -> bool:
        """Does this spec fire on the ``call_index``-th matching call?"""
        if call_index < self.at:
            return False
        return self.times == -1 or call_index < self.at + self.times


@dataclass
class FaultEvent:
    """One fired fault, recorded on the plan's event log."""

    seq: int
    op: str
    kind: str
    call_index: int
    path: str | None = None

    def as_tuple(self) -> tuple:
        return (self.seq, self.op, self.kind, self.call_index, self.path)


class FaultPlan:
    """An ordered fault script with deterministic firing decisions.

    ``counts`` tracks how many times each *matching* spec has seen its
    op; the first spec (in list order) that both matches the op pattern
    and covers the current call index fires. ``events`` is the
    reproducibility log: equal seeds over equal operation sequences
    yield equal logs (``tools/check_chaos.py`` asserts this end to
    end).
    """

    def __init__(self, specs: list[FaultSpec] | tuple = (), seed: int = 0,
                 name: str = ""):
        self.specs = list(specs)
        self.seed = int(seed)
        self.name = name
        self.events: list[FaultEvent] = []
        self._counts: dict[int, int] = {}
        self._lock = threading.Lock()

    # -- bookkeeping -----------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.events = []
            self._counts = {}

    def event_log(self) -> list[tuple]:
        with self._lock:
            return [event.as_tuple() for event in self.events]

    # -- the decision ----------------------------------------------------
    def check(self, op: str, path: str | Path | None = None
              ) -> FaultSpec | None:
        """The spec firing on this call of ``op``, updating counters."""
        with self._lock:
            fired = None
            for index, spec in enumerate(self.specs):
                if not fnmatch(op, spec.op):
                    continue
                count = self._counts.get(index, 0) + 1
                self._counts[index] = count
                if fired is None and spec.covers(count):
                    fired = (spec, count)
            if fired is None:
                return None
            spec, count = fired
            self.events.append(FaultEvent(
                seq=len(self.events), op=op, kind=spec.kind,
                call_index=count,
                path=str(path) if path is not None else None))
            return spec

    # -- serialization ---------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "seed": self.seed,
            "specs": [asdict(spec) for spec in self.specs],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls(specs=[FaultSpec(**spec) for spec in payload["specs"]],
                   seed=payload.get("seed", 0),
                   name=payload.get("name", ""))

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path


# ---------------------------------------------------------------------------
# activation and the seam
# ---------------------------------------------------------------------------

_active_lock = threading.Lock()
_active: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    return _active


@contextlib.contextmanager
def inject(plan: FaultPlan):
    """Activate ``plan`` process-wide for the duration of the block.

    Global rather than thread-local on purpose: the daemon's worker
    threads must see the plan a test installed from the main thread.
    Nesting is rejected — overlapping plans would make the event logs
    meaningless.
    """
    global _active
    with _active_lock:
        if _active is not None:
            raise RuntimeError("a fault plan is already active; "
                               "nested inject() is not supported")
        _active = plan
    try:
        yield plan
    finally:
        with _active_lock:
            _active = None


def fire(op: str, path: str | Path | None = None) -> None:
    """The injection seam: a no-op unless an active plan scripts a
    fault for this call of ``op``.

    Production call sites name their seams here and pass the file/dir
    the operation touches (so ``torn``/``corrupt`` know what to
    mangle). The seam raises, sleeps, or mangles exactly as the plan
    scripts — and nothing else.
    """
    plan = _active
    if plan is None:
        return
    spec = plan.check(op, path)
    if spec is None:
        return
    detail = spec.message or f"fault plan {plan.name or plan.seed}: " \
                             f"{spec.kind} on {op}"
    if spec.kind == "slow":
        time.sleep(spec.delay_ms / 1000.0)
        return
    if spec.kind == "error":
        raise InjectedError(detail)
    if spec.kind == "timeout":
        raise InjectedTimeout(detail)
    if spec.kind == "crash":
        raise InjectedCrash(detail)
    if path is None:
        raise RuntimeError(f"fault kind {spec.kind!r} on op {op!r} needs "
                           "a path, but the seam passed none")
    if spec.kind == "torn":
        tear_file(path, spec.keep_fraction)
        raise InjectedCrash(detail)
    flip_byte(path)  # corrupt: silent — the reader must catch it
