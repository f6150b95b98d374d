"""The streaming scale generator: block-at-a-time parity, v2 output.

The load-bearing contract: the streamed build, which dedups, k-cores
and splits one generator block at a time, is *byte*-identical to the
in-RAM reference, because every generation decision is a function of
entity identity (block-seeded RNG or hash-based coin flips), never of
visit order, and every interaction block holds whole users in
ascending order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.data.chunked import encode_pairs
from repro.data.io import _SPLIT_FIELDS, dataset_fingerprint, load_dataset
from repro.data.scale import (_ITEM_BLOCK, _USER_BLOCK, ScaleConfig,
                              build_scale_dataset,
                              build_scale_dataset_in_ram, hash_u01,
                              item_partition, iter_interaction_chunks,
                              scale_config, split_rows)


@pytest.fixture(scope="module")
def config():
    """Small enough for sub-second builds, large enough that k-core,
    cold partitioning, and partial coverage all have work to do."""
    return scale_config("tiny", seed=0, num_users=400, num_items=300,
                        modality_coverage=0.8)


@pytest.fixture(scope="module")
def reference(config):
    return build_scale_dataset_in_ram(config)


@pytest.fixture(scope="module")
def blocks_config():
    """Three user blocks and two item blocks, with activity low enough
    that the k-core drops users in every user block, and partial
    modality coverage."""
    return scale_config("tiny", seed=0, num_users=2 * _USER_BLOCK + 50,
                        num_items=_ITEM_BLOCK + 100,
                        interactions_per_user_min=3,
                        interactions_per_user_max=20,
                        modality_coverage=0.8)


# each seed draws a different world, so the k-core drops and the cold,
# split and coverage coin flips land differently in every block
PARITY_SEEDS = (1, 13, 65536, 10**9)


class TestHashU01:
    def test_deterministic_and_order_free(self, rng):
        ids = rng.integers(0, 10**6, size=200)
        direct = hash_u01(ids, seed=3, salt=7)
        shuffled = rng.permutation(len(ids))
        np.testing.assert_array_equal(
            hash_u01(ids[shuffled], seed=3, salt=7), direct[shuffled])

    def test_range_and_spread(self):
        u = hash_u01(np.arange(10000), seed=0, salt=1)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert 0.45 < u.mean() < 0.55

    def test_seed_and_salt_decorrelate(self):
        ids = np.arange(1000)
        a = hash_u01(ids, seed=0, salt=1)
        assert not np.array_equal(a, hash_u01(ids, seed=1, salt=1))
        assert not np.array_equal(a, hash_u01(ids, seed=0, salt=2))


class TestBuildParity:
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_chunked_build_is_bit_identical(self, blocks_config, seed,
                                            tmp_path):
        config = dataclasses.replace(blocks_config, seed=seed)
        chunked = build_scale_dataset(config, out=tmp_path / "ds.v2")
        reference = build_scale_dataset_in_ram(config)
        assert dataset_fingerprint(chunked) == \
            dataset_fingerprint(reference)
        # fingerprint equality is the contract; compare the arrays it
        # summarizes too, so a hash bug cannot mask a real divergence
        for field in _SPLIT_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(chunked.split, field)),
                getattr(reference.split, field))
        for modality, features in reference.features.items():
            np.testing.assert_array_equal(
                np.asarray(chunked.features[modality]), features)
        np.testing.assert_array_equal(np.asarray(chunked.kg.triplets),
                                      reference.kg.triplets)

    def test_blocks_hold_whole_users_in_key_order(self, blocks_config):
        """What per-block dedup and k-core rest on, and proof that this
        world exercises them: every block's keys sort below the next
        block's, and the k-core drops users in every block."""
        blocks = list(iter_interaction_chunks(blocks_config))
        assert len(blocks) == 3
        last_key = -1
        for block in blocks:
            keys = np.unique(encode_pairs(block, blocks_config.num_items))
            assert keys[0] > last_key
            last_key = keys[-1]
            degrees = np.bincount(keys // blocks_config.num_items)
            assert (degrees[degrees > 0] < blocks_config.k_core).any()

    def test_seeds_change_content(self, config):
        other = dataclasses.replace(config, seed=config.seed + 1)
        assert dataset_fingerprint(build_scale_dataset_in_ram(other)) != \
            dataset_fingerprint(build_scale_dataset_in_ram(config))

    def test_chunked_output_is_a_mmap_v2_directory(self, config,
                                                   tmp_path):
        out = tmp_path / "scale.v2"
        build_scale_dataset(config, out=out)
        assert (out / "manifest.json").exists()
        loaded = load_dataset(out, mmap=True)
        assert isinstance(loaded.features["text"], np.memmap)


class TestWorldShape:
    def test_split_fields_partition_the_interactions(self, config):
        pairs = np.unique(
            np.concatenate(list(iter_interaction_chunks(config))), axis=0)
        fields = split_rows(pairs, config)
        total = sum(len(rows) for name, rows in fields.items()
                    if not name.startswith("cold_val_")
                    and not name.startswith("cold_test_"))
        assert total == len(pairs)

    def test_cold_items_never_in_warm_fields(self, config, reference):
        warm_items, cold_items = item_partition(config)
        cold = set(cold_items.tolist())
        for field in ("train", "warm_val", "warm_test"):
            rows = np.asarray(getattr(reference.split, field))
            assert not cold.intersection(rows[:, 1].tolist())
        for field in ("cold_val", "cold_test"):
            rows = np.asarray(getattr(reference.split, field))
            assert set(rows[:, 1].tolist()) <= cold

    def test_k_core_floor_holds(self, reference, config):
        train_like = np.concatenate([
            np.asarray(reference.split.train),
            np.asarray(reference.split.warm_val),
            np.asarray(reference.split.warm_test),
            np.asarray(reference.split.cold_val),
            np.asarray(reference.split.cold_test)])
        counts = np.bincount(train_like[:, 0])
        assert counts[counts > 0].min() >= config.k_core

    def test_power_law_head_dominates(self, config):
        """Zipf popularity: the busiest decile of items should carry a
        disproportionate share of the traffic."""
        pairs = np.concatenate(list(iter_interaction_chunks(config)))
        counts = np.sort(np.bincount(pairs[:, 1],
                                     minlength=config.num_items))[::-1]
        head = counts[:config.num_items // 10].sum()
        assert head / counts.sum() > 0.2

    def test_modality_coverage_zeroes_rows(self, config, reference):
        text = np.asarray(reference.features["text"])
        empty = ~np.any(text != 0.0, axis=1)
        assert 0 < empty.sum() < len(text)

    def test_trains_a_model_end_to_end(self, config):
        from repro.baselines import create_model
        from repro.train import TrainConfig, train_model
        dataset = build_scale_dataset(config)
        model = create_model("BPR", dataset, embedding_dim=8, seed=0)
        result = train_model(model, dataset,
                             TrainConfig(epochs=1, eval_every=1,
                                         batch_size=128))
        assert np.isfinite(result.losses).all()


class TestScaleConfig:
    def test_presets_resolve(self):
        assert scale_config("tiny").num_users == 2000
        assert scale_config("xlarge").num_users == 1_000_000

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="galactic"):
            scale_config("galactic")

    def test_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            ScaleConfig(user_activity_exponent=1.0)
