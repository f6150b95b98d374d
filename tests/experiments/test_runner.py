"""Runner: cached stages, cross-process resume, parity with the direct
pipeline."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import create_model
from repro.eval import evaluate_model
from repro.experiments import (ArtifactStore, ExperimentSpec, Runner,
                               comparison_rows)
from repro.train import TrainConfig, train_model

TINY_WORLD = {
    "num_users": 60,
    "num_items": 40,
    "num_clusters": 4,
    "latent_dim": 8,
    "interactions_per_user_mean": 8.0,
    "text_feature_dim": 12,
    "image_feature_dim": 16,
    "vocab_size": 120,
    "cluster_vocab_size": 12,
    "num_brands": 8,
    "num_categories": 5,
    "seed": 0,
}


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="tiny", dataset="custom", world=dict(TINY_WORLD),
        models=("BPR", "LightGCN"), embedding_dim=16,
        train=TrainConfig(epochs=2, eval_every=1, batch_size=64,
                          learning_rate=0.05))
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture()
def runner(tmp_path) -> Runner:
    return Runner(ArtifactStore(tmp_path / "store"))


class TestStages:
    def test_all_three_stages_commit_artifacts(self, runner):
        spec = tiny_spec()
        run = runner.run(spec)
        assert runner.store.get("dataset", spec.dataset_key())
        for model in spec.models:
            assert runner.store.get("train", spec.train_key(model))
            assert runner.store.get("eval", spec.eval_key(model))
        assert set(run.results) == set(spec.models)

    def test_second_run_is_served_from_memo(self, runner):
        spec = tiny_spec()
        runner.run(spec)
        before = dict(runner.stats)
        runner.run(spec)
        assert runner.stats == before

    def test_new_runner_resumes_from_the_store(self, runner, tmp_path):
        spec = tiny_spec()
        fingerprint = runner.run(spec).fingerprint
        fresh = Runner(ArtifactStore(tmp_path / "store"))
        run = fresh.run(spec)
        assert fresh.stats["train_runs"] == 0
        assert fresh.stats["dataset_builds"] == 0
        assert fresh.stats["eval_runs"] == 0
        assert run.fingerprint == fingerprint

    def test_stop_after_train_then_resume(self, runner, tmp_path):
        spec = tiny_spec()
        partial = runner.run(spec, stop_after="train")
        assert partial.completed_stage == "train"
        assert not partial.results
        resumer = Runner(ArtifactStore(tmp_path / "store"))
        run = resumer.run(spec)
        assert resumer.stats["train_runs"] == 0
        cold = Runner(ArtifactStore(tmp_path / "cold"))
        assert run.fingerprint == cold.run(spec).fingerprint

    def test_cache_hits_hash_each_file_once(self, runner, tmp_path,
                                            monkeypatch):
        from repro.experiments import store as store_module
        spec = tiny_spec(models=("BPR",))
        runner.run(spec, stop_after="train")
        hashed = []
        real_sha256 = store_module._file_sha256

        def counting_sha256(path):
            hashed.append(path.name)
            return real_sha256(path)

        monkeypatch.setattr(store_module, "_file_sha256", counting_sha256)
        fresh = Runner(ArtifactStore(tmp_path / "store"))
        fresh.dataset(spec)
        files = fresh.store.get("dataset", spec.dataset_key(),
                                verify=False) / "dataset"
        assert len(hashed) == len(list(files.iterdir()))
        hashed.clear()
        fresh.trained(spec, "BPR")
        model = fresh.store.get("train", spec.train_key("BPR"),
                                verify=False) / "model"
        assert hashed == sorted(path.name for path in model.iterdir())
        assert fresh.stats["train_runs"] == 0

    def test_refresh_retrains(self, runner, tmp_path):
        spec = tiny_spec()
        fingerprint = runner.run(spec).fingerprint
        forced = Runner(ArtifactStore(tmp_path / "store"), refresh=True)
        run = forced.run(spec)
        assert forced.stats["train_runs"] == len(spec.models)
        assert run.fingerprint == fingerprint


class TestParityWithDirectPipeline:
    def test_metrics_match_the_unpiped_path_bitwise(self, runner):
        """Runner-produced metrics (via artifacts) equal the direct
        dataset->train->eval code path float-for-float — the byte
        identity the regenerated results/ tables rely on."""
        spec = tiny_spec(models=("BPR",))
        run = runner.run(spec)

        from repro.data.datasets import build_dataset
        from repro.data.world import WorldConfig
        dataset = build_dataset("custom", WorldConfig(**TINY_WORLD))
        model = create_model("BPR", dataset, embedding_dim=16, seed=0)
        train_model(model, dataset, spec.train)
        direct = evaluate_model(model, dataset.split, k=spec.eval_k)

        assert run.results["BPR"]["cold"] == direct.cold
        assert run.results["BPR"]["warm"] == direct.warm

    def test_eval_artifact_roundtrips_floats_exactly(self, runner,
                                                     tmp_path):
        spec = tiny_spec(models=("BPR",))
        live = runner.run(spec).results["BPR"]
        reloaded = Runner(ArtifactStore(tmp_path / "store")) \
            .evaluation(spec, "BPR")
        assert reloaded == live

    def test_training_killed_mid_run_resumes_to_the_same_fingerprint(
            self, runner, tmp_path):
        spec = tiny_spec(models=("BPR",),
                         train=TrainConfig(epochs=3, eval_every=1,
                                           batch_size=64,
                                           learning_rate=0.05))
        reference = runner.run(spec).fingerprint

        killed = Runner(ArtifactStore(tmp_path / "killed"))
        dataset = killed.dataset(spec)
        key = spec.train_key("BPR")
        snapshot = killed.store.partial_dir("train", key) / "snapshot"
        victim = killed._create_model(spec, "BPR", dataset)

        class _Killed(Exception):
            pass

        def kill_hook(epoch, model):
            if epoch == 0:
                raise _Killed()

        with pytest.raises(_Killed):
            train_model(victim, dataset, spec.train,
                        snapshot_path=snapshot, epoch_hook=kill_hook)
        assert snapshot.exists()

        run = killed.run(spec)
        assert run.fingerprint == reference
        assert not snapshot.exists(), "partial state must be cleared"


class TestScenarios:
    def test_inference_scenarios_share_the_trained_artifact(self, runner):
        base = tiny_spec(models=("Firzen",),
                         train=TrainConfig(epochs=1, eval_every=1,
                                           batch_size=64,
                                           learning_rate=0.05))
        runner.run(base)
        trained_runs = runner.stats["train_runs"]
        gated = dataclasses.replace(
            base, scenarios=(("modality_mask",
                              {"modalities": ["text"],
                               "use_knowledge": False}),))
        gated.__post_init__()
        run = runner.run(gated)
        assert runner.stats["train_runs"] == trained_runs
        # gating changes the cold metrics, and the shared model's config
        # is restored afterwards
        model, _ = runner.trained(base, "Firzen")
        assert model.config.inference_modalities is None
        assert run.results["Firzen"]["cold"] != \
            runner.run(base).results["Firzen"]["cold"]

    def test_normal_cold_leaves_the_shared_model_unmutated(self, runner):
        spec = tiny_spec(models=("LightGCN",),
                         scenarios=(("normal_cold", {}),),
                         train=TrainConfig(epochs=1, eval_every=1,
                                           batch_size=64,
                                           learning_rate=0.05))
        run = runner.run(spec)
        assert set(run.results["LightGCN"]) == {"strict_unknown",
                                                "normal"}
        base = dataclasses.replace(spec, scenarios=())
        base.__post_init__()
        model, _ = runner.trained(base, "LightGCN")
        # the shared model still scores against the original (strict)
        # interaction graph: its strict cold evaluation is unchanged
        direct = evaluate_model(model,
                                runner.dataset(base).split).cold
        fresh = Runner(ArtifactStore(runner.store.root))
        assert direct == fresh.run(base).results["LightGCN"]["cold"]

    def test_dataset_scenarios_build_their_own_stage(self, runner):
        base = tiny_spec(models=())
        noisy = tiny_spec(models=(),
                          scenarios=(("kg_noise", {"kind": "outlier"}),))
        plain = runner.dataset(base)
        transformed = runner.dataset(noisy)
        assert transformed.kg.num_triplets > plain.kg.num_triplets
        assert runner.store.get("dataset", base.dataset_key())
        assert runner.store.get("dataset", noisy.dataset_key())
        assert base.dataset_key() != noisy.dataset_key()


class TestWorldHandling:
    def test_require_world_rebuilds_when_loaded_from_store(self, runner,
                                                           tmp_path):
        spec = tiny_spec(models=())
        runner.dataset(spec)
        fresh = Runner(ArtifactStore(tmp_path / "store"))
        loaded = fresh.dataset(spec)
        assert loaded.world is None  # archive stores the contract only
        assert not isinstance(loaded.features["text"], np.memmap)
        rebuilt = fresh.dataset(spec, require_world=True)
        assert rebuilt.world is not None
        # the rebuilt dataset matches the archived arrays exactly
        assert np.array_equal(loaded.split.train, rebuilt.split.train)
        for modality in loaded.features:
            assert np.array_equal(loaded.features[modality],
                                  rebuilt.features[modality])
        assert np.array_equal(loaded.kg.triplets, rebuilt.kg.triplets)

    def test_invalid_custom_world_is_rejected_at_the_edge(self, runner):
        """A spec's world dict reaches ``WorldConfig`` unchecked; a topical
        block wider than the vocabulary must fail there, by name."""
        spec = tiny_spec(models=(), world=dict(
            TINY_WORLD, vocab_size=20, cluster_vocab_size=30))
        with pytest.raises(ValueError, match="cluster_vocab_size"):
            runner.dataset(spec)


class TestScaleDatasetStage:
    """dataset="scale" routes through the chunked out-of-core builder
    and reopens its committed directory mmap'd."""

    def _scale_spec(self, **overrides):
        base = dict(
            name="scale-tiny", dataset="scale", size="tiny",
            world={"num_users": 300, "num_items": 200},
            models=("BPR",), embedding_dim=8,
            train=TrainConfig(epochs=1, eval_every=1, batch_size=128,
                              learning_rate=0.05))
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_commits_a_v2_directory_artifact(self, runner, tmp_path):
        spec = self._scale_spec()
        runner.run(spec)
        committed = runner.store.get("dataset", spec.dataset_key())
        assert committed is not None
        assert (committed / "dataset" / "manifest.json").exists()
        fresh = Runner(ArtifactStore(tmp_path / "store"))
        assert isinstance(fresh.dataset(spec).features["text"], np.memmap)

    def test_resume_from_mmap_artifact_is_bit_identical(self, runner,
                                                        tmp_path):
        spec = self._scale_spec()
        fingerprint = runner.run(spec).fingerprint
        fresh = Runner(ArtifactStore(tmp_path / "store"))
        rerun = fresh.run(spec)
        assert fresh.stats["dataset_builds"] == 0
        assert fresh.stats["train_runs"] == 0
        assert rerun.fingerprint == fingerprint

    def test_size_sweep_over_scale_datasets(self, runner):
        from repro.experiments import expand_sweep
        spec = self._scale_spec(sweep=("size", ("tiny",)))
        for _value, child in expand_sweep(spec):
            run = runner.run(child)
            assert "BPR" in run.results
