"""Firzen hyperparameters.

Defaults follow the paper where stated: the sensitivity study (Fig. 6)
identifies lambda_k = 0.36, lambda_m = 1.10, eta = 0.99 and K = 10 as the
operating point on Amazon Beauty; embeddings are 64-d in the paper (32 here
to fit the scaled-down benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FirzenConfig:
    """All knobs of the Firzen architecture and its training objectives."""

    embedding_dim: int = 32
    # SAHGL
    behavior_layers: int = 2          # L for behavior-aware LightGCN
    knowledge_layers: int = 1         # attention hops on the CKG
    modality_dropout: float = 0.2     # dropout in the Linear of eq. 7
    # The paper's Beauty operating point is lambda_k=0.36, lambda_m=1.10;
    # on our ~100x-smaller synthetic benchmarks lambda_k=0.50, lambda_m=0.60
    # balance the warm/cold trade-off the same way (the sensitivity sweep
    # in benchmarks/test_fig6_sensitivity.py reproduces the Fig. 6 shape
    # around this point).
    lambda_k: float = 0.50            # knowledge-aware fusion weight
    lambda_m: float = 0.60            # modality-aware fusion weight
    beta_momentum: float = 0.99       # eta in eq. 16-17
    # MSHGL
    item_item_topk: int = 10          # K neighbors in the item-item graphs
    user_user_topk: int = 10          # K neighbors in the user-user graph
    item_item_layers: int = 1         # L_{i-i}
    user_user_layers: int = 1         # L_{u-u}
    attention_heads: int = 2          # H in the dependency-aware fusion
    # Objectives (eq. 32)
    adv_weight: float = 0.05          # lambda_adv
    contrastive_weight: float = 0.02  # lambda_contr
    reg_weight: float = 1e-4          # lambda_reg
    contrastive_temperature: float = 0.2
    gumbel_temperature: float = 0.5   # tau in eq. 23
    aux_signal_weight: float = 0.1    # gamma in eq. 23
    gradient_penalty_weight: float = 1.0   # xi in eq. 26
    discriminator_lr: float = 0.005
    discriminator_steps: int = 2      # D updates per epoch
    kg_batches: int = 4               # TransR batches per alternating step
    kg_batch_size: int = 512
    kg_lr: float = 0.01
    # Component toggles (Table IV ablations)
    use_behavior: bool = True         # BA
    use_knowledge: bool = True        # KA
    use_modality: bool = True         # MA
    use_mshgl: bool = True            # MS
    # Inference-time gating (Table VIII): subset of modalities consumed.
    # None means "use everything the model was trained with".
    inference_modalities: tuple | None = None
    # Inference-time knowledge gating (Table VIII): None = as trained.
    inference_use_knowledge: bool | None = None
    # Freeze beta at its uniform initialization (fusion ablation bench).
    freeze_beta: bool = False
