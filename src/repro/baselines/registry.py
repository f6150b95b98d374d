"""Model registry: the paper's five comparison families plus Firzen."""

from __future__ import annotations

import numpy as np

from ..data.datasets import RecDataset
from .base import Recommender
from .bm3 import BM3Model
from .bpr import BPRModel
from .cke import CKEModel
from .clcrec import CLCRecModel
from .dragon import DragonModel
from .dropoutnet import DropoutNetModel
from .kgat import KGATModel
from .kgcn import KGCNModel
from .kgnnls import KGNNLSModel
from .lightgcn import LightGCNModel
from .mkgat import MKGATModel
from .mmssl import MMSSLModel
from .naive import PopularityModel, RandomModel
from .sgl import SGLModel
from .simplex import SimpleXModel
from .vbpr import VBPRModel

#: model name -> (class, family) in the paper's Table II ordering
MODEL_FAMILIES = {
    "BPR": (BPRModel, "CF"),
    "LightGCN": (LightGCNModel, "CF"),
    "SGL": (SGLModel, "CF"),
    "SimpleX": (SimpleXModel, "CF"),
    "CKE": (CKEModel, "KG"),
    "KGAT": (KGATModel, "KG"),
    "KGCN": (KGCNModel, "KG"),
    "KGNNLS": (KGNNLSModel, "KG"),
    "VBPR": (VBPRModel, "MM"),
    "DRAGON": (DragonModel, "MM"),
    "BM3": (BM3Model, "MM"),
    "MMSSL": (MMSSLModel, "MM"),
    "DropoutNet": (DropoutNetModel, "CS"),
    "CLCRec": (CLCRecModel, "CS"),
    "MKGAT": (MKGATModel, "MM+KG"),
}

#: the sanity floors Random and MostPopular, beyond the paper's Table II
#: roster; excluded from available_models() so the headline comparisons
#: keep the paper's roster.
EXTRA_MODELS = {
    "Random": (RandomModel, "floor"),
    "MostPopular": (PopularityModel, "floor"),
}


def available_models(include_firzen: bool = True) -> list[str]:
    names = list(MODEL_FAMILIES)
    if include_firzen:
        names.append("Firzen")
    return names


def model_family(name: str) -> str:
    if name == "Firzen":
        return "MM+KG"
    if name in EXTRA_MODELS:
        return EXTRA_MODELS[name][1]
    return MODEL_FAMILIES[name][1]


def create_model(name: str, dataset: RecDataset, embedding_dim: int = 32,
                 seed: int = 0, **kwargs) -> Recommender:
    """Instantiate a model by its paper name."""
    rng = np.random.default_rng(seed)
    if name == "Firzen":
        from ..core.firzen import FirzenModel
        return FirzenModel(dataset, embedding_dim=embedding_dim, rng=rng,
                           **kwargs)
    if name not in MODEL_FAMILIES and name not in EXTRA_MODELS:
        raise ValueError(f"unknown model {name!r}; "
                         f"expected one of "
                         f"{available_models() + sorted(EXTRA_MODELS)}")
    cls, _ = MODEL_FAMILIES.get(name) or EXTRA_MODELS[name]
    return cls(dataset, embedding_dim=embedding_dim, rng=rng, **kwargs)
