"""Named experiment specs: ``repro run <name>``.

Each preset is a zero-argument builder so environment overrides
(``REPRO_BENCH_EPOCHS`` / ``REPRO_BENCH_SIZE``) and CLI flags can be
applied to the returned spec. The benchmark harnesses compose richer
specs of their own; presets cover the common entry points.
"""

from __future__ import annotations

import os

from ..train.trainer import TrainConfig
from .spec import SIZES, ExperimentSpec

#: the paper's Table II / III roster, in the paper's ordering
PAPER_MODELS = (
    "BPR", "LightGCN", "SGL", "SimpleX",
    "CKE", "KGAT", "KGCN", "KGNNLS",
    "VBPR", "DRAGON", "BM3", "MMSSL",
    "DropoutNet", "CLCRec",
    "MKGAT", "Firzen",
)


def bench_env_epochs() -> int | None:
    """``REPRO_BENCH_EPOCHS`` as a positive integer, or None when it is
    unset or empty; raises ``ValueError`` naming the variable on any
    other value.  ``repro run`` and the benchmark harnesses both read
    the variable through this function."""
    raw = os.environ.get("REPRO_BENCH_EPOCHS")
    if not raw:
        return None
    try:
        epochs = int(raw)
    except ValueError:
        epochs = 0
    if epochs <= 0:
        raise ValueError(f"REPRO_BENCH_EPOCHS must be a positive "
                         f"integer, got {raw!r}")
    return epochs


def bench_env_size() -> str | None:
    """``REPRO_BENCH_SIZE`` as one of the size presets, or None when it
    is unset or empty; raises ``ValueError`` naming the variable on any
    other value.  ``repro run`` and the benchmark harnesses both read
    the variable through this function."""
    raw = os.environ.get("REPRO_BENCH_SIZE")
    if not raw:
        return None
    if raw not in SIZES:
        raise ValueError(f"REPRO_BENCH_SIZE must be one of "
                         f"{', '.join(SIZES)}, got {raw!r}")
    return raw


def bench_train_config(epochs: int = 12) -> TrainConfig:
    """The benchmark harnesses' shared training configuration."""
    return TrainConfig(epochs=epochs, eval_every=4, batch_size=512,
                       learning_rate=0.05, patience=3)


def _comparison(name: str, dataset: str, description: str,
                models=PAPER_MODELS) -> ExperimentSpec:
    return ExperimentSpec(
        name=name, dataset=dataset, models=models,
        train=bench_train_config(), description=description)


def _smoke() -> ExperimentSpec:
    return ExperimentSpec(
        name="smoke", dataset="beauty", size="tiny",
        models=("BPR", "LightGCN"),
        train=TrainConfig(epochs=3, eval_every=3, batch_size=256,
                          learning_rate=0.05),
        description="tiny end-to-end pipeline exercise (CI smoke)")


def _quickstart() -> ExperimentSpec:
    return ExperimentSpec(
        name="quickstart", dataset="beauty", models=("Firzen",),
        train=TrainConfig(epochs=16, eval_every=4, batch_size=512,
                          learning_rate=0.05, patience=3),
        description="train Firzen on Beauty, strict cold + warm eval")


def _kg_noise() -> ExperimentSpec:
    return ExperimentSpec(
        name="kg-noise-beauty", dataset="beauty",
        models=("KGAT", "Firzen"), train=bench_train_config(),
        scenarios=(("kg_noise", {"kind": "duplicate", "rate": 0.2}),),
        description="retrain on a KG with 20% duplicate-triplet noise "
                    "(Table V slice)")


def _normal_cold() -> ExperimentSpec:
    return ExperimentSpec(
        name="normal-cold-beauty", dataset="beauty",
        models=("BPR", "LightGCN", "Firzen"),
        train=bench_train_config(),
        scenarios=(("normal_cold", {}),),
        description="normal cold-start transfer protocol (Table VI "
                    "slice)")


def _modality() -> ExperimentSpec:
    return ExperimentSpec(
        name="modality-beauty", dataset="beauty", models=("Firzen",),
        train=bench_train_config(),
        scenarios=(("modality_mask", {"modalities": ("text",),
                                      "use_knowledge": False}),),
        description="evaluate a trained Firzen with only the text "
                    "modality active (Table VIII slice)")


def _scale_smoke() -> ExperimentSpec:
    return ExperimentSpec(
        name="scale-smoke", dataset="scale", size="tiny",
        models=("BPR",),
        train=TrainConfig(epochs=2, eval_every=2, batch_size=512,
                          learning_rate=0.05),
        embedding_dim=16,
        description="streamed scale generator through the full "
                    "pipeline (CI smoke)")


def _scaling_sweep() -> ExperimentSpec:
    return ExperimentSpec(
        name="scaling-sweep", dataset="scale", size="tiny",
        models=("BPR",),
        train=TrainConfig(epochs=2, eval_every=2, batch_size=512,
                          learning_rate=0.05),
        embedding_dim=16,
        sweep=("size", ("tiny", "small")),
        description="catalog size as a sweep axis over the streamed "
                    "scale generator")


PRESETS = {
    "smoke": _smoke,
    "scale-smoke": _scale_smoke,
    "scaling-sweep": _scaling_sweep,
    "quickstart": _quickstart,
    "compare-beauty": lambda: _comparison(
        "compare-beauty", "beauty",
        "Table II comparison on Amazon Beauty"),
    "compare-cell_phones": lambda: _comparison(
        "compare-cell_phones", "cell_phones",
        "Table II comparison on Amazon Cell Phones"),
    "compare-clothing": lambda: _comparison(
        "compare-clothing", "clothing",
        "Table II comparison on Amazon Clothing"),
    "compare-weixin": lambda: _comparison(
        "compare-weixin", "weixin",
        "Table III comparison on Weixin-Sports"),
    "kg-noise-beauty": _kg_noise,
    "normal-cold-beauty": _normal_cold,
    "modality-beauty": _modality,
}


def available_presets() -> dict[str, ExperimentSpec]:
    return {name: build() for name, build in PRESETS.items()}


def get_preset(name: str) -> ExperimentSpec:
    if name not in PRESETS:
        raise KeyError(f"unknown experiment preset {name!r}; "
                       f"available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]()
