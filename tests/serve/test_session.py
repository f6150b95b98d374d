"""Tests for the serving query session (the engine behind
``python -m repro serve``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import create_model
from repro.serve import EmbeddingStore, ServingSession


@pytest.fixture()
def session(tiny_dataset):
    model = create_model("BPR", tiny_dataset, embedding_dim=8)
    return ServingSession(EmbeddingStore.from_model(model, tiny_dataset),
                          default_k=5)


class TestQueries:
    def test_topk(self, session):
        output = session.execute("topk 3 4")
        assert output.startswith("user 3 ->")
        assert len(output.split("->")[1].split()) == 4

    def test_topk_default_k(self, session):
        output = session.execute("topk 0")
        assert len(output.split("->")[1].split()) == 5

    def test_batch_multiple_users(self, session):
        output = session.execute("batch 0,1,2 3")
        lines = output.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("user 1 ->")

    def test_cold_restricts_candidates(self, session):
        output = session.execute("cold 2 5")
        cold = set(session.store.cold_items().tolist())
        items = [int(cell.split(":")[0])
                 for cell in output.split("->")[1].split()]
        assert set(items) <= cold

    def test_stats(self, session):
        output = session.execute("stats")
        assert "users: 60" in output
        assert "ingested items: 0" in output

    def test_help_quit_comment_blank(self, session):
        assert "topk" in session.execute("help")
        assert session.execute("quit") is None
        assert session.execute("exit") is None
        assert session.execute("") == ""
        assert session.execute("# comment") == ""


class TestErrors:
    def test_unknown_command(self, session):
        assert "unknown command" in session.execute("frobnicate")

    def test_unknown_user(self, session):
        assert session.execute("topk 99999").startswith("error:")

    def test_malformed_user_list(self, session):
        assert session.execute("batch 1,x").startswith("error:")

    def test_missing_ingest_file(self, session, tmp_path):
        output = session.execute(f"ingest {tmp_path / 'absent.npz'}")
        assert output.startswith("error:")

    def test_corrupt_ingest_archive(self, session, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"PK\x03\x04truncated-not-a-zip")
        assert session.execute(f"ingest {path}").startswith("error:")
        # Session survives and keeps serving.
        assert session.execute("topk 0 1").startswith("user 0 ->")

    def test_usage_errors(self, session):
        assert session.execute("topk").startswith("error:")
        assert session.execute("ingest a b").startswith("error:")


class TestSwapFlow:
    def test_swap_command_publishes_new_snapshot(self, session, tmp_path,
                                                 rng):
        other = EmbeddingStore(rng.normal(size=(12, 8)),
                               rng.normal(size=(9, 8)),
                               metadata={"model": "swapped-in"})
        path = other.save(tmp_path / "next")
        output = session.execute(f"swap {path} mmap")
        assert "snapshot v2" in output
        assert session.store.metadata["model"] == "swapped-in"
        assert "snapshot version: 2" in session.execute("stats")
        assert session.execute("topk 0 3").startswith("user 0 ->")

    def test_swap_errors_keep_session_alive(self, session, tmp_path):
        assert session.execute("swap").startswith("error:")
        output = session.execute(f"swap {tmp_path / 'absent'}")
        assert output.startswith("error:")
        assert session.execute("topk 0 1").startswith("user 0 ->")


class TestIngestFlow:
    def test_ingest_then_query_cold_item(self, session, tmp_path):
        store = session.store
        target = int(store.warm_items()[0])
        path = tmp_path / "new.npz"
        np.savez(path, **{m: store.features[m][target][None, :]
                          for m in store.modalities})
        before = store.num_items
        output = session.execute(f"ingest {path}")
        assert f"ingested 1 item(s): [{before}]" in output

        # The freshly onboarded item is immediately rankable.
        output = session.execute("cold 0 50")
        items = [int(cell.split(":")[0])
                 for cell in output.split("->")[1].split()]
        assert before in items
