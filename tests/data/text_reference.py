"""The string-corpus review sampler and ``Counter`` TF-IDF that
``repro.data`` replaced with word-id arrays, kept verbatim as their exact
reference.

A review is a ``(user, item, words)`` triple with the words as strings.
:func:`sample_reviews` draws one review per interaction with two
generator calls (topical words, then background words);
:func:`tfidf_scores` and :func:`select_feature_words` count terms with a
``Counter`` per review and return dicts keyed by word. The glue at the
end turns an id matrix or a string corpus into the other form, and names
the worlds that more than one reference test draws from.
"""

from __future__ import annotations

import importlib.util
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.world import WorldConfig


def sample_reviews(rng: np.random.Generator, config, interactions,
                   item_clusters, vocabulary: list[str]
                   ) -> list[tuple[int, int, list[str]]]:
    """One bag-of-words review per interaction, drawn review by review."""
    reviews = []
    block = config.cluster_vocab_size
    for user, item in interactions:
        cluster = int(item_clusters[item])
        start = (cluster * block) % max(config.vocab_size - block, 1)
        topical = rng.integers(start, start + block,
                               size=config.words_per_review // 2)
        background = rng.integers(0, config.vocab_size,
                                  size=config.words_per_review
                                  - config.words_per_review // 2)
        words = [vocabulary[w] for w in np.concatenate([topical, background])]
        reviews.append((int(user), int(item), words))
    return reviews


@dataclass
class Selection:
    """Outcome of TF-IDF feature-word selection."""

    selected_words: list[str]
    word_scores: dict[str, float]
    item_words: dict[int, list[str]]  # item -> selected words in its reviews


def term_frequencies(documents: list[list[str]]) -> Counter:
    """Corpus-level raw term counts."""
    counts: Counter = Counter()
    for doc in documents:
        counts.update(doc)
    return counts


def document_frequencies(documents: list[list[str]]) -> Counter:
    """Number of documents each term appears in."""
    counts: Counter = Counter()
    for doc in documents:
        counts.update(set(doc))
    return counts


def tfidf_scores(documents: list[list[str]]) -> dict[str, float]:
    """Max-over-documents TF-IDF score per term."""
    num_docs = len(documents)
    if num_docs == 0:
        return {}
    df = document_frequencies(documents)
    scores: dict[str, float] = defaultdict(float)
    for doc in documents:
        if not doc:
            continue
        tf = Counter(doc)
        length = len(doc)
        for word, count in tf.items():
            idf = np.log(num_docs / df[word])
            score = (count / length) * idf
            if score > scores[word]:
                scores[word] = float(score)
    return dict(scores)


def select_feature_words(reviews: list[tuple[int, int, list[str]]],
                         min_frequency: int = 10,
                         max_frequency: int = 1000,
                         min_score: float = 0.1) -> Selection:
    """Frequency window plus score threshold, words in string order."""
    documents = [words for _, _, words in reviews]
    freq = term_frequencies(documents)
    scores = tfidf_scores(documents)

    selected = sorted(
        word for word, count in freq.items()
        if min_frequency <= count <= max_frequency
        and scores.get(word, 0.0) > min_score
    )
    selected_set = set(selected)

    item_words: dict[int, list[str]] = defaultdict(list)
    for _, item, words in reviews:
        hits = [w for w in words if w in selected_set]
        for word in hits:
            if word not in item_words[item]:
                item_words[item].append(word)

    return Selection(
        selected_words=selected,
        word_scores={w: scores.get(w, 0.0) for w in selected},
        item_words=dict(item_words),
    )


# ---------------------------------------------------------------------------
# glue between the two corpus forms
# ---------------------------------------------------------------------------

def world_reviews(world) -> list[tuple[int, int, list[str]]]:
    """A world's review id matrix as string reviews."""
    vocabulary = world.vocabulary
    return [(int(user), int(item), [vocabulary[w] for w in row])
            for (user, item), row in zip(world.interactions, world.reviews)]


def encode(reviews: list[tuple[int, int, list[str]]],
           vocabulary: list[str]):
    """String reviews as (token review ids, token word ids, review items)."""
    index = {word: idx for idx, word in enumerate(vocabulary)}
    review_ids = [r for r, (_, _, words) in enumerate(reviews)
                  for _ in words]
    word_ids = [index[w] for _, _, words in reviews for w in words]
    return (np.asarray(review_ids, dtype=np.int64),
            np.asarray(word_ids, dtype=np.int64),
            np.asarray([item for _, item, _ in reviews], dtype=np.int64))


# ---------------------------------------------------------------------------
# worlds shared by the reference tests
# ---------------------------------------------------------------------------

# the 150 x 3600 catalog world of the repository benchmark
CATALOG_WORLD = WorldConfig(num_users=150, num_items=3600, num_clusters=8,
                            interactions_per_user_mean=60.0, seed=0)

# topical blocks on both sides of word id 10000, where string order (the
# feature entity order) and id order part
LARGE_VOCABULARY_WORLD = WorldConfig(
    num_users=400, num_items=200, num_clusters=11, vocab_size=12000,
    cluster_vocab_size=1000, seed=4)


def golden_config() -> WorldConfig:
    """The world config of the golden protocol (tests/golden/protocol.py)."""
    path = Path(__file__).resolve().parents[1] / "golden" / "protocol.py"
    spec = importlib.util.spec_from_file_location("golden_protocol", path)
    protocol = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(protocol)
    return protocol.golden_world()
