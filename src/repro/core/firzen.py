"""Firzen: the paper's unified strict cold-start / warm-start recommender.

Pipeline (paper Fig. 4):

1. **Frozen graph construction** — interaction graph, collaborative KG,
   modality-specific item-item kNN graphs, user-user co-occurrence graph.
2. **SAHGL** — behavior-aware, modality-aware and knowledge-aware encoders
   fused with importance-aware weights (eq. 5-17).
3. **MSHGL** — item-item and user-user homogeneous propagation with
   dependency-aware multi-head fusion (eq. 18-21).

Training optimizes BPR + adversarial + contrastive losses (eq. 32)
against a frozen discriminator, and alternates with the discriminator's
own WGAN-GP phase (eq. 26-27) and the TransR KG objective (eq. 30).
Inference expands the item-item graphs to strict cold-start items under
the cold->warm mask (eq. 34-35).
"""

from __future__ import annotations

import numpy as np

from ..autograd import (Tensor, bpr_loss, embedding_l2, infonce, rowwise_dot)
from ..autograd.nn import Embedding
from ..autograd.optim import Adam
from ..baselines.base import Recommender
from ..components.transr import TransRScorer, transr_loss
from ..data.datasets import RecDataset
from ..graphs.ckg import build_collaborative_kg, sample_kg_negatives
from ..graphs.interaction import InteractionGraph
from ..graphs.item_item import build_item_item_graphs
from ..graphs.user_user import UserUserGraph
from ..utils.arrays import sorted_unique
from .config import FirzenConfig
from .discriminator import GraphRowDiscriminator, gumbel_augmented_graph
from .mshgl import MSHGL
from .sahgl import (BehaviorEncoder, ImportanceFusion, KnowledgeEncoder,
                    ModalityEncoder)


class FirzenModel(Recommender):
    name = "Firzen"
    uses_modalities = True
    uses_kg = True

    def __init__(self, dataset: RecDataset, embedding_dim: int = 32,
                 rng: np.random.Generator | None = None,
                 config: FirzenConfig | None = None,
                 modalities: tuple | None = None):
        rng = rng or np.random.default_rng(0)
        super().__init__(dataset, embedding_dim, rng)
        self.config = config or FirzenConfig(embedding_dim=embedding_dim)
        self.config.embedding_dim = embedding_dim
        self.modalities = tuple(modalities if modalities is not None
                                else dataset.modalities)

        # ---- frozen graph construction --------------------------------
        self.interaction_graph = InteractionGraph(
            self.num_users, self.num_items, dataset.split.train)
        features = {m: dataset.features[m] for m in self.modalities}
        self.item_graphs = build_item_item_graphs(
            features, self.config.item_item_topk, dataset.split.warm_items,
            dataset.split.is_cold)
        self.user_graph = UserUserGraph(
            self.interaction_graph.user_item_matrix,
            self.config.user_user_topk)
        self.ckg = build_collaborative_kg(
            dataset.kg, dataset.split.train, self.num_users)

        # ---- parameters & encoders -------------------------------------
        self.user_emb = Embedding(self.num_users, embedding_dim, rng)
        self.item_emb = Embedding(self.num_items, embedding_dim, rng)
        self.behavior = BehaviorEncoder(
            self.interaction_graph, self.user_emb, self.item_emb,
            self.config.behavior_layers)
        self.modality_encoders = {
            m: ModalityEncoder(dataset, self.interaction_graph, m,
                               embedding_dim, self.config.modality_dropout,
                               rng)
            for m in self.modalities
        }
        if self.config.use_knowledge:
            self.knowledge = KnowledgeEncoder(
                self.ckg, self.user_emb, self.item_emb, embedding_dim,
                self.config.knowledge_layers, rng)
            self.transr = TransRScorer(
                self.ckg.num_relations, embedding_dim, embedding_dim, rng)
            self._kg_optimizer = Adam(
                self.transr.parameters() + self.knowledge.parameters(),
                lr=self.config.kg_lr)
        else:
            self.knowledge = None
            self.transr = None
        self.fusion = ImportanceFusion(self.config, self.modalities)
        self.mshgl = MSHGL(self.config, self.item_graphs, self.user_graph,
                           rng)
        self.discriminator = GraphRowDiscriminator(
            self.num_items, 64, rng)
        self._disc_optimizer = Adam(self.discriminator.parameters(),
                                    lr=self.config.discriminator_lr)
        self._kg_rng = np.random.default_rng(int(rng.integers(0, 2 ** 31)))
        self._disc_rng = np.random.default_rng(int(rng.integers(0, 2 ** 31)))
        self._last_disc_scores = {m: 0.5 for m in self.modalities}

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------
    def _sahgl(self, active_modalities: tuple,
               use_knowledge: bool | None = None):
        """Run the heterogeneous stage; returns fused (u, i) plus the raw
        modality-aware pieces needed by the auxiliary losses."""
        if use_knowledge is None:
            use_knowledge = self.config.use_knowledge
        behavior = self.behavior() if self.config.use_behavior else None
        knowledge = self.knowledge() if (
            self.knowledge is not None and use_knowledge) else None

        modality_parts = {}
        modality_raw = {}
        for modality in self.modalities:
            if modality not in active_modalities:
                continue
            if not self.config.use_modality:
                break
            x_u, x_i, projected = self.modality_encoders[modality]()
            modality_parts[modality] = (x_u, x_i)
            modality_raw[modality] = (x_u, x_i, projected)

        fused_u, fused_i = self.fusion(behavior, knowledge, modality_parts)
        if fused_u is None:
            # Degenerate all-off ablation: fall back to raw embeddings.
            fused_u, fused_i = self.user_emb.weight, self.item_emb.weight
        return fused_u, fused_i, modality_raw

    def _forward(self, mode: str):
        """Full model: SAHGL then (optionally) MSHGL."""
        gating = self.config.inference_modalities
        active = (self.modalities if (mode == "train" or gating is None)
                  else tuple(m for m in self.modalities if m in gating))
        use_knowledge = self.config.use_knowledge
        if mode != "train" and self.config.inference_use_knowledge is not None:
            use_knowledge = self.config.inference_use_knowledge
        fused_u, fused_i, modality_raw = self._sahgl(
            active, use_knowledge=use_knowledge)
        if self.config.use_mshgl:
            final_u, final_i = self.mshgl(
                fused_u, fused_i, mode,
                active_modalities=active)
        else:
            final_u, final_i = fused_u, fused_i
        return final_u, final_i, modality_raw

    # ------------------------------------------------------------------
    # training objectives (eq. 32)
    # ------------------------------------------------------------------
    def loss(self, users, pos_items, neg_items):
        final_u, final_i, modality_raw = self._forward("train")
        u = final_u.take_rows(users)
        pos = final_i.take_rows(pos_items)
        neg = final_i.take_rows(neg_items)
        total = bpr_loss(rowwise_dot(u, pos), rowwise_dot(u, neg))

        unique_users = sorted_unique(users)
        # Adversarial generator term: make each modality's virtual graph
        # look real to the frozen discriminator, scored on its factors.
        if self.config.adv_weight > 0 and modality_raw:
            adv = None
            for modality, (x_u, x_i, _) in modality_raw.items():
                term = -self.discriminator(
                    x_u.take_rows(unique_users).normalize(),
                    x_i.normalize(), frozen=True)
                adv = term if adv is None else adv + term
            total = total + self.config.adv_weight * adv

        # Contrastive term (eq. 28): modality-aware user embeddings vs the
        # final user embeddings.
        if self.config.contrastive_weight > 0 and modality_raw:
            contrast = None
            for modality, (x_u, _, _) in modality_raw.items():
                term = infonce(final_u.take_rows(unique_users),
                               x_u.take_rows(unique_users),
                               temperature=self.config.contrastive_temperature)
                contrast = term if contrast is None else contrast + term
            total = total + self.config.contrastive_weight * contrast

        reg = embedding_l2([self.user_emb(users), self.item_emb(pos_items),
                            self.item_emb(neg_items)])
        return total + self.config.reg_weight * reg

    def extra_step(self):
        """Alternating updates: discriminator (WGAN-GP) and TransR KG loss."""
        self._discriminator_step()
        if self.transr is not None and self.config.use_knowledge:
            for _ in range(self.config.kg_batches):
                heads, relations, pos_t, neg_t = sample_kg_negatives(
                    self.dataset.kg, self.config.kg_batch_size, self._kg_rng)
                self._kg_optimizer.zero_grad()
                node_matrix = self.knowledge.node_matrix()
                loss = transr_loss(self.transr, node_matrix,
                                   heads, relations, pos_t, neg_t)
                loss.backward()
                self._kg_optimizer.step()

    def _discriminator_step(self):
        """Train D to separate augmented observed rows from virtual rows
        (eq. 26-27), and record per-modality scores for the beta update."""
        if not self.modalities or self.config.adv_weight <= 0:
            return
        final_u, final_i, modality_raw = self._forward("train")
        if not modality_raw:
            return
        batch = min(64, self.num_users)
        users = self._disc_rng.choice(self.num_users, size=batch,
                                      replace=False)
        observed = np.asarray(
            self.interaction_graph.user_item_matrix[users].todense())
        augmented = gumbel_augmented_graph(
            observed, final_u.data, final_i.data, users,
            self.config.gumbel_temperature, self.config.aux_signal_weight,
            self._disc_rng)

        # The virtual graphs are fixed for the whole discriminator
        # phase (x_u / x_i are detached snapshots): compute each
        # modality's normalized row block once instead of once per
        # discriminator iteration plus once for the score recording.
        virtual_rows = {}
        for modality, (x_u, x_i, _) in modality_raw.items():
            virtual = (x_u.data[users] @ x_i.data.T)
            norms = (np.linalg.norm(x_u.data[users], axis=1,
                                    keepdims=True)
                     * np.linalg.norm(x_i.data, axis=1)[None, :])
            virtual_rows[modality] = virtual / np.maximum(norms, 1e-12)

        for _ in range(self.config.discriminator_steps):
            self._disc_optimizer.zero_grad()
            loss = None
            real_rows = Tensor(augmented)
            for modality in modality_raw:
                virtual = virtual_rows[modality]
                fake_rows = Tensor(virtual)
                term = self.discriminator(fake_rows) \
                    - self.discriminator(real_rows)
                mix = self._disc_rng.uniform(0, 1)
                interpolated = Tensor(
                    mix * augmented + (1 - mix) * virtual)
                penalty = self.discriminator.gradient_penalty(interpolated)
                term = term + self.config.gradient_penalty_weight * penalty
                loss = term if loss is None else loss + term
            loss.backward()
            self._disc_optimizer.step()

        # Record post-update scores for the beta momentum rule.
        for modality in modality_raw:
            self._last_disc_scores[modality] = float(self.discriminator(
                Tensor(virtual_rows[modality]), frozen=True).item())

    def on_epoch_end(self, epoch: int):
        if (self.config.use_modality and self.modalities
                and not self.config.freeze_beta):
            self.fusion.update_beta(self._last_disc_scores)

    def parameters(self):
        """The trainer's parameters: all but the discriminator's, which
        only ``_disc_optimizer`` steps (eq. 26-27)."""
        disc = {id(p) for p in self.discriminator.parameters()}
        return [p for p in super().parameters() if id(p) not in disc]

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def adapt_to_interactions(self, extra):
        """Normal cold-start protocol: absorb newly-known user-item links
        into every frozen behavioral structure (interaction graph,
        modality aggregation, user-user graph, CKG Interact edges)."""
        graph = self.interaction_graph.with_extra_interactions(extra)
        self.interaction_graph = graph
        self.behavior.graph = graph
        for encoder in self.modality_encoders.values():
            encoder.rebind(graph)
        self.user_graph = UserUserGraph(graph.user_item_matrix,
                                        self.config.user_user_topk)
        self.mshgl.user_propagation.graph = self.user_graph
        if self.knowledge is not None:
            self.ckg = build_collaborative_kg(
                self.dataset.kg, graph.interactions, self.num_users)
            self.knowledge.ckg = self.ckg
            for layer in self.knowledge.layers:
                layer.rebind(self.ckg)
        self.invalidate()

    def compute_representations(self):
        final_u, final_i, _ = self._forward("infer")
        return final_u.data.copy(), final_i.data.copy()

    @property
    def beta(self) -> dict:
        """Current modality importance weights (beta_t, beta_i)."""
        return dict(self.fusion.beta)

    # ------------------------------------------------------------------
    # persistence: include the beta buffers alongside the parameters
    # ------------------------------------------------------------------
    def state_dict(self):
        state = super().state_dict()
        for modality, value in self.fusion.beta.items():
            state[f"__beta__.{modality}"] = np.asarray(value)
        return state

    def load_state_dict(self, state):
        state = dict(state)
        for modality in list(self.fusion.beta):
            key = f"__beta__.{modality}"
            if key in state:
                self.fusion.beta[modality] = float(state.pop(key))
        super().load_state_dict(state)

    def training_state(self):
        # The per-modality discriminator scores feed the *next* beta
        # momentum update when a discriminator phase is skipped, so a
        # resumed run must see the same values an uninterrupted one
        # would.
        return {"last_disc_scores": dict(self._last_disc_scores)}

    def load_training_state(self, state):
        self._last_disc_scores.update(
            {m: float(v)
             for m, v in state.get("last_disc_scores", {}).items()})
