"""Fault injection on the dataset-directory write seam.

The streamed scale builder and ``save_dataset`` publish through the same
staged-write pattern as the serving store: arrays into a
``*.tmp-<pid>`` sibling, manifest last, one atomic ``os.replace``.
The ``dataset.build.write`` seam lets the chaos suite kill or tear the
write between the arrays and the manifest — exactly what a real crash
leaves behind — and these tests pin the recovery contract: nothing
half-published, torn state rejected with a structured error, a clean
retry bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import save_dataset
from repro.data.io import (CorruptDatasetError, dataset_fingerprint,
                           load_dataset)
from repro.data.scale import (build_scale_dataset,
                              build_scale_dataset_in_ram, scale_config)
from repro.reliability import (FaultPlan, FaultSpec, InjectedCrash,
                               inject)


@pytest.fixture(scope="module")
def config():
    return scale_config("tiny", seed=0, num_users=200, num_items=150)


class TestDatasetWriteFaults:
    def test_crash_never_publishes_and_leaves_staged(self, tiny_dataset,
                                                     tmp_path):
        path = tmp_path / "ds"
        plan = FaultPlan([FaultSpec(op="dataset.build.write",
                                    kind="crash")], name="kill-write")
        with inject(plan):
            with pytest.raises(InjectedCrash):
                save_dataset(tiny_dataset, path)
        assert not path.exists()
        staged = list(tmp_path.glob("ds.tmp-*"))
        assert staged, "simulated kill should leave the staged dir"
        # the staged dir is manifest-less: loading it is a structured
        # error naming the path, not a raw traceback
        with pytest.raises(CorruptDatasetError) as info:
            load_dataset(staged[0])
        assert str(staged[0]) in str(info.value)

    def test_clean_retry_round_trips(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds"
        plan = FaultPlan([FaultSpec(op="dataset.build.write",
                                    kind="crash", times=1)])
        with inject(plan):
            with pytest.raises(InjectedCrash):
                save_dataset(tiny_dataset, path)
            save_dataset(tiny_dataset, path)  # clean
        assert dataset_fingerprint(load_dataset(path)) == \
            dataset_fingerprint(tiny_dataset)

    def test_chunked_build_crash_then_rebuild_recovers(self, config,
                                                       tmp_path):
        out = tmp_path / "scale"
        reference = dataset_fingerprint(build_scale_dataset_in_ram(config))
        plan = FaultPlan([FaultSpec(op="dataset.build.write",
                                    kind="crash", times=1)],
                         name="kill-scale-build")
        with inject(plan):
            with pytest.raises(InjectedCrash):
                build_scale_dataset(config, out=out)
            assert not out.exists()
            # recovery is simply rebuilding: deterministic generation
            # lands on the same bits the uninterrupted build produces
            rebuilt = build_scale_dataset(config, out=out)
        assert dataset_fingerprint(rebuilt) == reference
        np.testing.assert_array_equal(
            np.asarray(load_dataset(out, mmap=True).split.train),
            np.asarray(rebuilt.split.train))

    def test_error_fault_aborts_the_staged_dir(self, tiny_dataset,
                                               tmp_path):
        """A plain (non-crash) failure mid-write cleans up after
        itself: no staged litter, no published dir."""
        path = tmp_path / "ds"
        plan = FaultPlan([FaultSpec(op="dataset.build.write",
                                    kind="error")])
        with inject(plan):
            with pytest.raises(OSError):
                save_dataset(tiny_dataset, path)
        assert not path.exists()
        assert not list(tmp_path.glob("ds.tmp-*"))
