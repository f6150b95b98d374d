"""Reusable model components shared by Firzen and the baselines."""

from .lightgcn import lightgcn_propagate
from .kgat import KnowledgeGraphAttention
from .transr import TransRScorer, transr_loss

__all__ = [
    "lightgcn_propagate",
    "KnowledgeGraphAttention",
    "TransRScorer",
    "transr_loss",
]
