"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments import (ExperimentSpec, Runner, comparison_rows,
                               default_store)
from repro.train import TrainConfig
from repro.utils.tables import format_table


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "BPR"])
        assert args.model == "BPR"
        assert args.dataset == "beauty"
        assert args.epochs == 12

    def test_train_has_no_lr_schedule_flag(self):
        # One constant learning rate: argparse exits before training.
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "BPR", "--lr-schedule", "cosine"])
        assert excinfo.value.code == 2

    def test_compare_accepts_multiple(self):
        args = build_parser().parse_args(
            ["compare", "BPR", "LightGCN", "--epochs", "2"])
        assert args.models == ["BPR", "LightGCN"]
        assert args.epochs == 2

    def test_export_embeddings_defaults(self):
        args = build_parser().parse_args(["export-embeddings", "out"])
        assert args.out == "out"
        assert args.model == "Firzen"
        assert args.checkpoint is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--store", "s"])
        assert args.store == "s"
        assert args.queries is None
        assert args.block_size == 1024

    def test_serve_store_and_checkpoint_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--store", "s",
                                       "--checkpoint", "c"])

    @pytest.mark.parametrize("argv", [
        ["train", "BPR", "--size", "tiny", "--checkpoint", "x.npz"],
        ["evaluate", "x.npz"],
        ["export-embeddings", "out", "--checkpoint", "x.npz"],
        ["serve", "--checkpoint", "x.npz"],
    ], ids=["train", "evaluate", "export-embeddings", "serve"])
    def test_npz_checkpoint_is_a_usage_error(self, argv, capsys):
        # a checkpoint is an array directory: argparse exits before any
        # dataset is built or model trained
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "x.npz" in err and "array directory" in err
        assert not default_store().root.exists()

    def test_export_format_flag(self):
        """One store format: there is no --format to choose one."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["export-embeddings", "out", "--format", "v2"])

    def test_serve_daemon_flags(self):
        args = build_parser().parse_args(
            ["serve", "--store", "s", "--daemon", "--port", "0",
             "--mmap"])
        assert args.daemon and args.mmap
        assert args.port == 0
        # The batcher never waits for stragglers: no delay window flag.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--store", "s", "--daemon", "--max-delay-ms",
                 "1.5"])

    def test_serve_mmap_requires_store(self):
        assert main(["serve", "--mmap"]) == 2

    def test_bench_serving_latency_flags(self):
        args = build_parser().parse_args(
            ["bench", "serving", "--min-serving-speedup", "1.0",
             "--clients", "2", "--serving-scale", "0.5"])
        assert args.benchmark == "serving"
        assert args.clients == 2 and args.serving_scale == 0.5
        assert args.min_serving_speedup == 1.0

    @pytest.mark.parametrize("argv", [
        ["serving", "--min-throughput", "5"],
        ["serving", "--epochs", "3"],
        ["sparse", "--dataset", "weixin"],
        ["scaling", "--breakdown"],
        ["train", "--clients", "4"],
    ], ids=["serving-min-throughput", "serving-epochs", "sparse-dataset",
            "scaling-breakdown", "train-clients"])
    def test_bench_rejects_flags_it_ignores(self, argv):
        # argparse exits before any measurement runs
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", *argv])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["train", "BPR", "--size", "tiny", "--epochs", "0"],
        ["train", "BPR", "--size", "tiny", "--epochs", "abc"],
        ["train", "BPR", "--size", "tiny", "--batch-size", "0"],
        ["train", "BPR", "--size", "tiny", "--k", "-1"],
        ["train", "BPR", "--size", "tiny", "--embedding-dim", "0"],
        ["train", "BPR", "--size", "tiny", "--learning-rate", "0"],
        ["train", "BPR", "--size", "tiny", "--learning-rate", "-1"],
        ["bench", "sparse", "--fixture-scale", "0.1", "--embedding-dim", "0"],
        ["run", "smoke", "--size", "tiny", "--epochs", "0"],
        ["serve", "--store", "st", "--block-size", "0", "--queries",
         "q.txt"],
        ["serve", "--store", "st", "--daemon", "--max-batch", "0"],
        ["serve", "--store", "st", "--daemon", "--max-queue", "-1"],
        ["serve", "--store", "st", "--daemon", "--deadline-ms", "0"],
        ["bench", "serving", "--clients", "0"],
        ["bench", "scaling", "--clients", "0"],
        ["bench", "serving", "--serving-scale", "0"],
        ["bench", "scaling", "--serving-scale", "-0.1"],
        ["bench", "sparse", "--fixture-scale", "0"],
    ], ids=["epochs-0", "epochs-abc", "batch-size-0", "k-negative",
            "embedding-dim-0", "learning-rate-0", "learning-rate-negative",
            "bench-sparse-embedding-dim-0", "run-epochs-0",
            "serve-block-size-0", "serve-max-batch-0",
            "serve-max-queue-negative", "serve-deadline-ms-0",
            "bench-serving-clients-0", "bench-scaling-clients-0",
            "bench-serving-scale-0", "bench-scaling-scale-negative",
            "bench-sparse-fixture-scale-0"])
    def test_rejects_non_positive_training_flags(self, argv, capsys,
                                                 monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "argument --" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_run_rejects_bad_bench_epochs_variable(self, value, capsys,
                                                   monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_EPOCHS", value)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "smoke", "--size", "tiny"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "REPRO_BENCH_EPOCHS" in err

    def test_run_rejects_unknown_bench_size_variable(self, capsys,
                                                     monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        monkeypatch.delenv("REPRO_BENCH_EPOCHS", raising=False)
        monkeypatch.setenv("REPRO_BENCH_SIZE", "huge")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "smoke"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "REPRO_BENCH_SIZE" in err

    def test_run_env_overrides_yield_to_flags(self, monkeypatch):
        from repro.cli import _run_env_overrides
        monkeypatch.setenv("REPRO_BENCH_EPOCHS", "5")
        monkeypatch.setenv("REPRO_BENCH_SIZE", "tiny")
        parser = build_parser()
        args = parser.parse_args(["run", "smoke"])
        assert _run_env_overrides(args) == (5, "tiny")
        args = parser.parse_args(["run", "smoke", "--epochs", "2",
                                  "--size", "small"])
        assert _run_env_overrides(args) == (2, "small")


class TestCommands:
    def test_models_lists_roster(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("BPR", "KGAT", "Firzen", "MostPopular", "Random"):
            assert name in out

    def test_datasets_tiny(self, capsys):
        assert main(["datasets", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "amazon-beauty" in out
        assert "weixin-sports" in out

    def test_train_and_evaluate_roundtrip(self, capsys, tmp_path):
        ckpt = str(tmp_path / "bpr")
        code = main(["train", "BPR", "--size", "tiny", "--epochs", "2",
                     "--embedding-dim", "8", "--checkpoint", ckpt])
        assert code == 0
        out = capsys.readouterr().out
        assert "Cold" in out and "Warm" in out and "HM" in out

        # the checkpoint records its spec: no flag needed
        code = main(["evaluate", ckpt])
        assert code == 0
        out = capsys.readouterr().out
        assert "BPR" in out

    def test_train_reads_the_artifact_store(self, capsys, monkeypatch):
        argv = ["train", "BPR", "--size", "tiny", "--epochs", "2",
                "--embedding-dim", "8"]
        assert main(argv) == 0
        first = capsys.readouterr().out

        def no_training(*args, **kwargs):
            raise AssertionError("the rerun trained again")

        monkeypatch.setattr("repro.experiments.runner.train_model",
                            no_training)
        assert main(argv) == 0
        # the stored model prints its recorded training time
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("model, model_kwargs", [
        ("BPR", {}),
        ("Firzen", {"config": {"item_item_topk": 5,
                               "user_user_topk": 5}}),
    ], ids=["bpr-dim-8", "firzen-config-override"])
    def test_evaluate_runner_checkpoint(self, capsys, model, model_kwargs):
        """``evaluate`` rebuilds a runner-trained model from the spec in
        its checkpoint and prints the runner's metrics."""
        spec = ExperimentSpec(
            name="cli-test", size="tiny", models=(model,),
            train=TrainConfig(epochs=1, eval_every=1, batch_size=128),
            model_kwargs={model: model_kwargs}, embedding_dim=8)
        runner = Runner()
        runner.trained(spec, model)
        ckpt = runner.store.get("train", spec.train_key(model)) / "model"
        expected = format_table(comparison_rows(runner, spec),
                                title=f"{model} (from {ckpt})")
        assert main(["evaluate", str(ckpt)]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_compare_command(self, capsys):
        code = main(["compare", "BPR", "MostPopular", "--size", "tiny",
                     "--epochs", "1", "--embedding-dim", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MostPopular" in out

    def test_export_from_checkpoint_preserves_seed(self, capsys, tmp_path):
        ckpt = str(tmp_path / "model")
        assert main(["train", "BPR", "--size", "tiny", "--epochs", "1",
                     "--embedding-dim", "8", "--seed", "5",
                     "--checkpoint", ckpt]) == 0
        out_path = str(tmp_path / "store")
        assert main(["export-embeddings", out_path,
                     "--checkpoint", ckpt]) == 0
        from repro.serve import EmbeddingStore
        store = EmbeddingStore.load(out_path)
        assert store.metadata["seed"] == 5
        assert store.user_vectors.shape[1] == 8

    def test_export_then_serve_with_ingest(self, capsys, tmp_path):
        store_path = str(tmp_path / "store")
        code = main(["export-embeddings", store_path, "--model", "BPR",
                     "--size", "tiny", "--epochs", "1",
                     "--embedding-dim", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "store written to" in out

        # Build a feature archive for one brand-new item (a twin of a
        # warm item so its placement is meaningful), then drive the
        # file-based serve mode: stats, topk, ingest, cold query.
        from repro.serve import EmbeddingStore
        store = EmbeddingStore.load(store_path)
        target = int(store.warm_items()[0])
        features_path = tmp_path / "new_items.npz"
        np.savez(features_path, **{m: store.features[m][target][None, :]
                                   for m in store.modalities})
        queries = tmp_path / "queries.txt"
        queries.write_text(
            f"stats\ntopk 0 5\ningest {features_path}\n"
            f"cold 0 {store.num_items}\nquit\nnever-reached\n")
        code = main(["serve", "--store", store_path,
                     "--queries", str(queries)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested 1 item(s)" in out
        # The onboarded item id appears in the cold-candidate ranking.
        assert f" {store.num_items}:" in out.splitlines()[-1]

    def test_export_v2_then_serve_mmap(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        assert main(["export-embeddings", store_dir, "--model", "BPR",
                     "--size", "tiny", "--epochs", "1",
                     "--embedding-dim", "8"]) == 0
        out = capsys.readouterr().out
        assert f"store written to {store_dir}" in out

        queries = tmp_path / "queries.txt"
        queries.write_text("stats\ntopk 0 5\nquit\n")
        assert main(["serve", "--store", store_dir, "--mmap",
                     "--queries", str(queries)]) == 0
        mmap_out = capsys.readouterr().out
        assert "user 0 ->" in mmap_out

        # bit-for-bit the same rankings as the plain in-RAM path
        assert main(["serve", "--store", store_dir,
                     "--queries", str(queries)]) == 0
        plain_out = capsys.readouterr().out
        assert mmap_out.splitlines()[-1] == plain_out.splitlines()[-1]
