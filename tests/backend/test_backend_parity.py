"""Tolerance-tiered fast-vs-reference training parity (ISSUE 7).

The fast tier is *not* bit-exact — float32 parameters, accelerated
kernels — so its contract is metric closeness, pinned here per model:
train every roster model on the tiny world under both backends and
assert ranking metrics agree within a per-model absolute tolerance.
(On the tiny world the discrete rankings typically coincide exactly;
the tolerances leave honest headroom for real accelerators.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import backend_mode
from repro.baselines import create_model
from repro.eval import evaluate_model
from repro.train import TrainConfig, train_model

#: absolute tolerance on every ranking metric, per model — float32
#: params admit tiny score reorderings, nothing more
TOLERANCES = {"BPR": 0.05, "LightGCN": 0.05, "KGAT": 0.08, "Firzen": 0.08}


def _train_config() -> TrainConfig:
    return TrainConfig(epochs=2, eval_every=1, batch_size=64,
                       learning_rate=0.05, patience=10, seed=0)


def _metrics(model_name: str, dataset, backend: str) -> dict[str, float]:
    with backend_mode(backend):
        model = create_model(model_name, dataset, embedding_dim=8, seed=0)
        train_model(model, dataset, _train_config())
        bundle = evaluate_model(model, dataset.split, k=10)
    return {
        "cold_recall": bundle.cold.recall,
        "cold_ndcg": bundle.cold.ndcg,
        "warm_recall": bundle.warm.recall,
        "warm_ndcg": bundle.warm.ndcg,
    }


@pytest.mark.parametrize("model_name", sorted(TOLERANCES))
def test_fast_metrics_close_to_reference(model_name, tiny_dataset):
    reference = _metrics(model_name, tiny_dataset, "reference")
    fast = _metrics(model_name, tiny_dataset, "fast")
    atol = TOLERANCES[model_name]
    for name, ref_value in reference.items():
        delta = abs(ref_value - fast[name])
        assert delta <= atol, (
            f"{model_name} {name}: reference={ref_value:.6f} "
            f"fast={fast[name]:.6f} |delta|={delta:.6f} > {atol}")


def test_fast_params_are_float32(tiny_dataset):
    with backend_mode("fast"):
        model = create_model("BPR", tiny_dataset, embedding_dim=8, seed=0)
    assert all(p.data.dtype == np.float32 for p in model.parameters())
    with backend_mode("reference"):
        model = create_model("BPR", tiny_dataset, embedding_dim=8, seed=0)
    assert all(p.data.dtype == np.float64 for p in model.parameters())
