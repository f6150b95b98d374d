"""Synthetic benchmark construction (the paper's datasets, rebuilt)."""

from .amazon import load_amazon
from .chunked import (DEFAULT_CHUNK_ROWS, NpyStreamWriter, decode_pairs,
                      encode_pairs, external_k_core, external_sorted_unique,
                      read_npy_chunks)
from .io import (CorruptDatasetError, DatasetDirWriter,
                 dataset_fingerprint, load_dataset, save_dataset)
from .datasets import DatasetStatistics, RecDataset, build_dataset
from .kg_builder import RELATIONS, KnowledgeGraph, build_knowledge_graph
from .scale import (SCALE_SIZE_PRESETS, ScaleConfig, build_scale_dataset,
                    hash_u01, iter_feature_chunks, iter_interaction_chunks,
                    iter_kg_chunks, scale_config)
from .splits import ColdStartSplit, make_cold_start_split, split_normal_cold
from .text import TfidfResult, select_feature_words, tfidf_scores
from .weixin import load_weixin
from .world import World, WorldConfig, apply_k_core, generate_world

__all__ = [
    "DatasetStatistics",
    "RecDataset",
    "build_dataset",
    "KnowledgeGraph",
    "RELATIONS",
    "build_knowledge_graph",
    "ColdStartSplit",
    "make_cold_start_split",
    "split_normal_cold",
    "TfidfResult",
    "select_feature_words",
    "tfidf_scores",
    "load_amazon",
    "save_dataset",
    "load_dataset",
    "CorruptDatasetError",
    "DatasetDirWriter",
    "dataset_fingerprint",
    "load_weixin",
    "World",
    "WorldConfig",
    "generate_world",
    "apply_k_core",
    "DEFAULT_CHUNK_ROWS",
    "NpyStreamWriter",
    "read_npy_chunks",
    "encode_pairs",
    "decode_pairs",
    "external_sorted_unique",
    "external_k_core",
    "SCALE_SIZE_PRESETS",
    "ScaleConfig",
    "scale_config",
    "build_scale_dataset",
    "hash_u01",
    "iter_interaction_chunks",
    "iter_feature_chunks",
    "iter_kg_chunks",
]
