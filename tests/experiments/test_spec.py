"""ExperimentSpec: canonical hashing, content addresses, sweeps."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments import ExperimentSpec, content_key, expand_sweep
from repro.experiments.spec import canonical
from repro.train import TrainConfig


def _spec(**overrides) -> ExperimentSpec:
    base = dict(name="t", dataset="beauty", size="tiny",
                models=("BPR", "LightGCN"),
                train=TrainConfig(epochs=2, eval_every=1))
    base.update(overrides)
    return ExperimentSpec(**base)


class TestCanonical:
    def test_dict_order_is_irrelevant(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_dataclasses_canonicalize_to_their_fields(self):
        assert canonical(TrainConfig()) == canonical(
            dataclasses.asdict(TrainConfig()))

    def test_unhashable_objects_are_rejected(self):
        with pytest.raises(TypeError):
            content_key({"fn": object()})

    def test_numpy_scalars_match_python_scalars(self):
        import numpy as np
        assert content_key({"x": np.float64(0.5)}) == content_key({"x": 0.5})


class TestContentAddresses:
    def test_train_key_is_roster_independent(self):
        solo = _spec(models=("BPR",))
        duo = _spec(models=("BPR", "LightGCN"))
        assert solo.train_key("BPR") == duo.train_key("BPR")

    def test_train_key_changes_with_epochs(self):
        assert _spec().train_key("BPR") != _spec(
            train=TrainConfig(epochs=3, eval_every=1)).train_key("BPR")

    def test_train_key_changes_with_model_kwargs(self):
        tweaked = _spec(model_kwargs={"BPR": {"reg_weight": 0.01}})
        assert tweaked.train_key("BPR") != _spec().train_key("BPR")
        # ... but only for the model that was tweaked
        assert tweaked.train_key("LightGCN") == _spec().train_key("LightGCN")

    def test_dataset_key_ignores_train_config(self):
        assert _spec().dataset_key() == _spec(
            train=TrainConfig(epochs=9)).dataset_key()

    def test_dataset_steps_change_dataset_and_train_keys(self):
        noisy = _spec(scenarios=(("kg_noise", {"kind": "outlier"}),))
        assert noisy.dataset_key() != _spec().dataset_key()
        assert noisy.train_key("BPR") != _spec().train_key("BPR")

    def test_inference_steps_change_only_eval_key(self):
        gated = _spec(scenarios=(("modality_mask",
                                  {"modalities": ["text"]}),))
        assert gated.dataset_key() == _spec().dataset_key()
        assert gated.train_key("BPR") == _spec().train_key("BPR")
        assert gated.eval_key("BPR") != _spec().eval_key("BPR")

    def test_name_is_not_part_of_the_address(self):
        assert _spec(name="a").train_key("BPR") == \
            _spec(name="b").train_key("BPR")


class TestSerialization:
    def test_json_roundtrip_preserves_addresses(self):
        spec = _spec(scenarios=(("kg_noise", {"kind": "outlier"}),),
                     model_kwargs={"BPR": {"reg_weight": 0.01}})
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.dataset_key() == spec.dataset_key()
        for model in spec.models:
            assert restored.train_key(model) == spec.train_key(model)
            assert restored.eval_key(model) == spec.eval_key(model)

    @pytest.mark.parametrize("pin", [{"tape": None}, {"backend": None},
                                     {"backend": "reference"}],
                             ids=["tape", "backend-null",
                                  "backend-reference"])
    def test_spec_file_with_a_tape_pin_still_loads(self, pin):
        # Older spec files carry a "tape" key (the step tape never
        # changed results) and a "backend" key, null unless pinned;
        # both are dropped, so the spec keeps its unpinned address.
        spec = _spec()
        payload = {**json.loads(spec.to_json()), **pin}
        restored = ExperimentSpec.from_json(json.dumps(payload))
        assert restored.train_key("BPR") == spec.train_key("BPR")

    def test_spec_file_pinning_the_fast_tier_is_rejected(self):
        payload = {**json.loads(_spec().to_json()), "backend": "fast"}
        with pytest.raises(ValueError, match="fast tier was removed"):
            ExperimentSpec.from_json(json.dumps(payload))

    @pytest.mark.parametrize("key, value", [("weight_decay", 1e-4),
                                            ("grad_clip", 5.0)])
    def test_removed_train_option_with_another_value_rejected(self, key,
                                                               value):
        # The other two removed options (monitor, lr_schedule) are
        # checked in test_trainer.py's TestConfigValidation.
        payload = json.loads(_spec().to_json())
        payload["train"][key] = value
        with pytest.raises(ValueError, match=f"{key}.*removed"):
            ExperimentSpec.from_json(json.dumps(payload))

    def test_unknown_train_key_rejected(self):
        payload = json.loads(_spec().to_json())
        payload["train"]["momentum"] = 0.9
        with pytest.raises(ValueError, match="unknown train key 'momentum'"):
            ExperimentSpec.from_json(json.dumps(payload))

    @pytest.mark.parametrize("train", [5, None, [3]])
    def test_train_that_is_not_an_object_rejected(self, train):
        payload = {**json.loads(_spec().to_json()), "train": train}
        with pytest.raises(ValueError, match="train must be an object"):
            ExperimentSpec.from_json(json.dumps(payload))

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="tiny, small, medium"):
            _spec(size="enormous")

    def test_with_overrides(self):
        spec = _spec().with_overrides(epochs=7, size="small")
        assert spec.train.epochs == 7
        assert spec.size == "small"
        # the original is untouched
        assert _spec().train.epochs == 2


class TestBenchEnvironment:
    def test_bench_env_epochs(self, monkeypatch):
        from repro.experiments.presets import bench_env_epochs
        monkeypatch.delenv("REPRO_BENCH_EPOCHS", raising=False)
        assert bench_env_epochs() is None
        for raw, epochs in (("", None), ("5", 5)):
            monkeypatch.setenv("REPRO_BENCH_EPOCHS", raw)
            assert bench_env_epochs() == epochs
        for raw in ("abc", "0", "-3", "1.5"):
            monkeypatch.setenv("REPRO_BENCH_EPOCHS", raw)
            with pytest.raises(ValueError, match="REPRO_BENCH_EPOCHS"):
                bench_env_epochs()

    def test_bench_env_size(self, monkeypatch):
        from repro.experiments.presets import bench_env_size
        from repro.experiments.spec import SIZES
        monkeypatch.delenv("REPRO_BENCH_SIZE", raising=False)
        assert bench_env_size() is None
        monkeypatch.setenv("REPRO_BENCH_SIZE", "")
        assert bench_env_size() is None
        for size in SIZES:
            monkeypatch.setenv("REPRO_BENCH_SIZE", size)
            assert bench_env_size() == size
        for raw in ("huge", "Tiny", " small"):
            monkeypatch.setenv("REPRO_BENCH_SIZE", raw)
            with pytest.raises(ValueError, match="REPRO_BENCH_SIZE"):
                bench_env_size()


class TestSweep:
    def test_expansion_produces_distinct_addresses(self):
        spec = _spec(models=("Firzen",),
                     sweep=("lambda_k", (0.0, 0.5, 1.0)))
        children = expand_sweep(spec)
        assert [value for value, _ in children] == [0.0, 0.5, 1.0]
        keys = {child.train_key("Firzen") for _, child in children}
        assert len(keys) == 3
        for value, child in children:
            assert not child.sweep
            assert child.model_kwargs["Firzen"]["config"]["lambda_k"] \
                == value

    def test_no_sweep_returns_the_spec_itself(self):
        spec = _spec()
        assert expand_sweep(spec) == [(None, spec)]

    def test_size_sweep_expands_to_size_variants(self):
        spec = _spec(dataset="scale", size="tiny",
                     sweep=("size", ("tiny", "small")))
        children = expand_sweep(spec)
        assert [child.size for _, child in children] == ["tiny", "small"]
        for value, child in children:
            assert not child.sweep
            assert f"size={value}" in child.name
        keys = {child.dataset_key() for _, child in children}
        assert len(keys) == 2  # size is part of the dataset address

    def test_large_sizes_are_valid(self):
        assert _spec(size="xlarge").size == "xlarge"
