"""Fault-plan semantics: kinds, counters, determinism, serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.reliability import (FaultPlan, FaultSpec, InjectedCrash,
                               InjectedError, InjectedTimeout, active_plan,
                               fire, inject, is_injected_crash)
from repro.reliability.faults import flip_byte, tear_file


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(op="x", kind="explode")

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(op="x", kind="error", at=0)
        with pytest.raises(ValueError):
            FaultSpec(op="x", kind="error", times=0)
        with pytest.raises(ValueError):
            FaultSpec(op="x", kind="error", times=-2)

    def test_covers_window(self):
        spec = FaultSpec(op="x", kind="error", at=2, times=3)
        assert [spec.covers(i) for i in range(1, 7)] == \
            [False, True, True, True, False, False]

    def test_covers_forever(self):
        spec = FaultSpec(op="x", kind="error", at=3, times=-1)
        assert not spec.covers(2)
        assert all(spec.covers(i) for i in (3, 10, 1000))


class TestFirePlumbing:
    def test_noop_without_plan(self):
        assert active_plan() is None
        fire("anything")  # must not raise

    def test_error_fires_at_index(self):
        plan = FaultPlan([FaultSpec(op="op.a", kind="error", at=2)])
        with inject(plan):
            fire("op.a")                 # call 1: clean
            with pytest.raises(InjectedError):
                fire("op.a")             # call 2: fires
            fire("op.a")                 # call 3: window passed
        assert [e[1:4] for e in plan.event_log()] == [("op.a", "error", 2)]

    def test_timeout_and_crash_kinds(self):
        plan = FaultPlan([FaultSpec(op="t", kind="timeout"),
                          FaultSpec(op="c", kind="crash")])
        with inject(plan):
            with pytest.raises(InjectedTimeout):
                fire("t")
            with pytest.raises(InjectedCrash) as info:
                fire("c")
        assert is_injected_crash(info.value)
        # a simulated kill is not an Exception: `except Exception` code
        # cannot swallow it
        assert not isinstance(info.value, Exception)

    def test_glob_patterns_match_seams(self):
        plan = FaultPlan([FaultSpec(op="store.*", kind="error",
                                    times=-1)])
        with inject(plan):
            with pytest.raises(InjectedError):
                fire("store.v2.write")
            with pytest.raises(InjectedError):
                fire("store.read")
            fire("artifact.read")  # unmatched op: clean

    def test_torn_without_path_is_a_seam_bug(self):
        plan = FaultPlan([FaultSpec(op="x", kind="torn")])
        with inject(plan):
            with pytest.raises(RuntimeError, match="needs"):
                fire("x")

    def test_nested_inject_rejected(self):
        with inject(FaultPlan()):
            with pytest.raises(RuntimeError, match="already active"):
                with inject(FaultPlan()):
                    pass
        assert active_plan() is None

    def test_plan_deactivated_after_block(self):
        plan = FaultPlan([FaultSpec(op="x", kind="error")])
        with pytest.raises(InjectedError):
            with inject(plan):
                fire("x")
        assert active_plan() is None
        fire("x")  # no longer active


class TestDeterminism:
    def _drive(self, plan):
        """A fixed operation sequence with faults swallowed, as the
        chaos harness would run it."""
        plan.reset()
        with inject(plan):
            for op in ("a", "b", "a", "a", "b", "a"):
                try:
                    fire(op)
                except (InjectedError, InjectedCrash):
                    pass
        return plan.event_log()

    def test_same_plan_same_ops_same_events(self):
        plan = FaultPlan([FaultSpec(op="a", kind="error", at=2, times=2),
                          FaultSpec(op="b", kind="crash", at=2)],
                         seed=7, name="det")
        first = self._drive(plan)
        second = self._drive(plan)
        assert first == second
        assert [e[1:4] for e in first] == [
            ("a", "error", 2), ("a", "error", 3), ("b", "crash", 2)]

    def test_json_round_trip_preserves_firing(self):
        plan = FaultPlan([FaultSpec(op="a", kind="error", at=2, times=2),
                          FaultSpec(op="b", kind="crash", at=2)],
                         seed=7, name="det")
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == plan.seed
        assert clone.name == plan.name
        assert clone.specs == plan.specs
        assert self._drive(plan) == self._drive(clone)

    def test_save_load_file(self, tmp_path):
        plan = FaultPlan([FaultSpec(op="x", kind="slow", delay_ms=1.0)],
                         seed=3, name="file")
        path = plan.save(tmp_path / "plan.json")
        loaded = FaultPlan.load(path)
        assert loaded.specs == plan.specs
        assert loaded.seed == 3


class TestMangling:
    def test_tear_file_keeps_prefix(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(range(100)))
        tear_file(path, keep_fraction=0.25)
        assert path.read_bytes() == bytes(range(25))

    def test_tear_directory_drops_manifest(self, tmp_path):
        d = tmp_path / "staged"
        d.mkdir()
        (d / "a.npy").write_bytes(b"data")
        (d / "manifest.json").write_text("{}")
        tear_file(d)
        assert not (d / "manifest.json").exists()
        assert (d / "a.npy").exists()

    def test_flip_byte_changes_exactly_one_byte(self, tmp_path):
        path = tmp_path / "blob.bin"
        original = bytes(range(64))
        path.write_bytes(original)
        flip_byte(path)
        mutated = path.read_bytes()
        assert len(mutated) == len(original)
        assert sum(a != b for a, b in zip(original, mutated)) == 1

    def test_corrupt_kind_is_silent(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(64))
        plan = FaultPlan([FaultSpec(op="x", kind="corrupt")])
        with inject(plan):
            fire("x", path=path)  # silent: no exception
        assert path.read_bytes() != bytes(64)

    def test_slow_kind_sleeps_and_continues(self):
        import time
        plan = FaultPlan([FaultSpec(op="x", kind="slow", delay_ms=30.0)])
        with inject(plan):
            start = time.perf_counter()
            fire("x")
            assert time.perf_counter() - start >= 0.025
